"""Spans around calls into fsdim's public functions, kept in memory.

Tracing replaces each traced function by a wrapper at every place a caller
looks it up: the attribute of every fsdim module that holds it (the defining
module, each module that imported it by name, and the package).  Calls
inside the package, such as delta_exact's call of validate_certificate, are
therefore recorded too.  The package's own code is not edited.

A span is [name, parent, phase, op, start, end, attrs]; `parent` is the
index of the enclosing span or -1.  A span's self time is its duration minus
that of its direct children: the process is single-threaded, so children
never overlap.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from collections import defaultdict

def _note_digits(attrs, args, kwargs, result):
    attrs["digits"] = int(result.length_available)


def _note_affine(attrs, args, kwargs, result):
    attrs["requested"] = kwargs["count"] if "count" in kwargs else args[2]
    attrs["certified"] = result.certified_count
    attrs["lookahead"] = result.lookahead_used


def _note_certificate(attrs, args, kwargs, result):
    cert = result[0]
    attrs["identity_columns"] = len(cert.identity_columns)
    attrs["explicit_entries"] = len(cert.entries)


def _note_delta(attrs, args, kwargs, result):
    attrs["n"] = result.witness.n


def _note_report(attrs, args, kwargs, result):
    attrs["cells_built"] = len(result.records)
    attrs["cells_skipped"] = len(result.details.get("skipped_cells", ()))


# (module, attribute) -> (span name, function that notes counts from the
# call's arguments and result).  Attributes naming a class method are
# written "Class.method".  cli has no spans of its own: it is argparse around
# the digit-file I/O of digitseq, which is traced here.
TRACED = {
    ("fsdim.digitseq", "gen_champernowne"): ("digitseq.gen", _note_digits),
    ("fsdim.digitseq", "gen_rational_expansion"): ("digitseq.gen", _note_digits),
    ("fsdim.digitseq", "gen_dilution"): ("digitseq.gen", _note_digits),
    ("fsdim.digitseq", "select_progression"): ("digitseq.gen", _note_digits),
    ("fsdim.digitseq", "read_digit_file"): ("digitseq.read", _note_digits),
    ("fsdim.digitseq", "write_digit_file"): ("digitseq.write", None),
    ("fsdim.realarith", "mul_int_mod1"): ("realarith.affine", _note_affine),
    ("fsdim.realarith", "div_int"): ("realarith.affine", _note_affine),
    ("fsdim.realarith", "add_rational_mod1"): ("realarith.affine", _note_affine),
    ("fsdim.realarith", "mul_rational_mod1"): ("realarith.affine", _note_affine),
    ("fsdim.blockstats", "block_frequencies"): ("blockstats.block_frequencies", None),
    ("fsdim.blockstats", "entropy_rate_grid"): ("blockstats.entropy_rate_grid", None),
    ("fsdim.blockstats", "dim_estimates"): ("blockstats.entropy_rate_grid", None),
    ("fsdim.blockstats", "shannon_entropy"): ("blockstats.shannon_entropy", None),
    ("fsdim.blockstats", "normality_deviation"): ("blockstats.normality_deviation", None),
    ("fsdim.dispersion", "integer_multiple_certificate"):
        ("dispersion.certificate_build", _note_certificate),
    ("fsdim.dispersion", "block_distribution_as_code_vector"): ("dispersion.code_vector", None),
    ("fsdim.dispersion", "validate_certificate"): ("dispersion.validate", None),
    ("fsdim.dispersion", "SparseStochasticCertificate.support_counts"):
        ("dispersion.support_counts", None),
    ("fsdim.dispersion", "delta_exact"): ("dispersion.delta_exact", _note_delta),
    ("fsdim.dispersion", "reverse_certificate"): ("dispersion.reverse_compose", None),
    ("fsdim.dispersion", "compose_certificates"): ("dispersion.reverse_compose", None),
    ("fsdim.verify", "verify_rational_arithmetic"): ("verify", _note_report),
    ("fsdim.verify", "verify_dilution_counterexample"): ("verify", _note_report),
    ("fsdim.verify", "VerificationReport.to_json"): ("verify", None),
}


class Tracer:
    """Records spans; `phase` and `op` tag every span opened while they are set."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.phase = "setup"
        self.op = -1

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.phase, self.op,
                    time.perf_counter(), None, {}]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if note is not None:
                note(span[6], args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function wherever an fsdim module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "fsdim" or n.startswith("fsdim.")) and m is not None]
        for (modname, attr), (name, note) in TRACED.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), note))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "parent", "phase", "op", "start", "end", "attrs"],
                       "spans": self.spans}, fh)

    # ------------------------------------------------------------ derived figures

    def self_times(self):
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for name, parent, _, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[5] - s[4] - c for s, c in zip(self.spans, child)]


def layer_metrics(tracer: Tracer, n_ops: int, n_setups: int, probe: dict) -> dict:
    """The per-layer figures, each normalised as its description in README.md says."""
    selfs = tracer.self_times()
    op_self = defaultdict(float)
    setup_self = defaultdict(float)
    n6_self = 0.0
    counts = defaultdict(int)
    for span, own in zip(tracer.spans, selfs):
        name, _, phase, _, _, _, attrs = span
        if phase == "setup":
            setup_self[name] += own
            counts["setup_digits"] += attrs.get("digits", 0)
        elif phase == "op":
            op_self[name] += own
            counts[name + ".calls"] += 1
            for key, value in attrs.items():
                counts[key] += value
            if name == "dispersion.delta_exact" and attrs.get("n") == 6:
                n6_self += own
    per_op = max(n_ops, 1)
    # digitseq times are per set-up, where the inputs are made; the rest per operation
    metrics = {f"{name}.self_s": (setup_self[name] / n_setups if name.startswith("digitseq.")
                                  else op_self[name] / per_op)
               for name in sorted({name for name, _ in TRACED.values()})}
    requested = counts["requested"]
    affine_calls = counts["realarith.affine.calls"]
    metrics.update({
        "digitseq.digits_loaded": counts["setup_digits"] / n_setups,
        "digitseq.gen_rational_expansion.exponent": probe["gen_rational_expansion"],
        "realarith.mul_int_mod1.exponent": probe["mul_int_mod1"],
        # no digit requested means none went uncertified
        "realarith.certified_ratio": counts["certified"] / requested if requested else 1.0,
        "realarith.lookahead_digits": counts["lookahead"] / affine_calls if affine_calls else 0.0,
        "blockstats.block_frequencies.calls": counts["blockstats.block_frequencies.calls"] / per_op,
        "dispersion.cert_identity_columns": counts["identity_columns"] / per_op,
        "dispersion.cert_explicit_entries": counts["explicit_entries"] / per_op,
        "dispersion.delta_exact.n6.self_s": n6_self / per_op,
        "verify.cells_built": counts["cells_built"] / per_op,
        "verify.cells_skipped": counts["cells_skipped"] / per_op,
    })
    return metrics


def op_coverage(tracer: Tracer, op_seconds: list):
    """(share of all operation time, median share per operation) inside traced spans.

    Top-level spans of an operation cover exactly the summed self times of
    all its spans, so this is how much of an operation the layers account for.
    """
    covered = [0.0] * len(op_seconds)
    for name, parent, phase, op, start, end, _ in tracer.spans:
        if phase == "op" and parent < 0:
            covered[op] += end - start
    total = math.fsum(op_seconds)
    per_op = [c / t for c, t in zip(covered, op_seconds) if t > 0]
    return (math.fsum(covered) / total if total else 0.0,
            statistics.median(per_op) if per_op else 0.0)


def fit_exponent(sizes, seconds) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))
