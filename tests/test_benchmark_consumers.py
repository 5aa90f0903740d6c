"""The benchmark's output checks still accept what fsdim returns.

`perfbench/workloads.py` unpacks `integer_multiple_certificate(...)` as a
3-tuple and compares one certificate per leg, entry by entry, with pair
counts taken by naive slicing (`reference.block_certificate_failures`);
`tracing._note_certificate` reads the table from that same result in a
traced run.  Both files are loaded as the benchmark loads them, with
`perfbench/` on sys.path, and not edited.  A change of return shape or of
the certificate's fields fails here first.
"""

from fractions import Fraction
from pathlib import Path

import pytest

import fsdim

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import reference
    import tracing
    import workloads
    return reference, tracing, workloads


def test_preserve_leg_certificates_pass_the_benchmark_checks(bench, monkeypatch):
    reference, tracing, workloads = bench
    results = []
    build = fsdim.integer_multiple_certificate

    def recorded(*args, **kwargs):
        results.append(build(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(fsdim, "integer_multiple_certificate", recorded)
    wl = workloads.PreserveK10()
    wl.MAX_L, wl.SCHEDULE, wl.DIGITS = 4, (300,), 4 * 300 + 512
    alpha = reference.champernowne_digits(10, wl.DIGITS)
    digits_used = wl.MAX_L * max(wl.SCHEDULE) + 256  # what verify_rational_arithmetic reads
    l, n = 3, 300
    for leg, source, m in wl.legs(alpha, Fraction(1, 3)):
        cert = wl.leg_certificate(leg, source, m, digits_used, l, n)
        src = reference.settled_prefix(source, 10, l * n)
        dst = reference.settled_prefix(reference.ref_mul_int(source, m, 10), 10, l * n)
        assert src is not None and dst is not None, leg
        assert reference.block_certificate_failures(cert, src, dst, 10, l, n) == [], leg
        attrs = {}
        tracing._note_certificate(attrs, (), {}, results[-1])
        assert attrs == {"identity_columns": len(cert.identity_columns),
                         "explicit_entries": len(cert.entries)}, leg
    assert len(results) == 4
