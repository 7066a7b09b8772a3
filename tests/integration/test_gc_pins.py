"""Exact pins of the conservative collector on real registry programs.

Each run is ``Session(name, "mpfr:200", size="test")`` with the default
epoch and the final collection ``Session.run`` performs; the pinned
tuple is ``(passes, words scanned, shadows freed, GC modeled cycles)``
summed over every pass.  Any change to what the scan covers, how it
marks, or how a pass is charged moves at least one of these.
"""

import pytest

from repro.session import Session

GC_PINS = {
    "lorenz": (4, 302, 1387, 17248),
    "fbench": (2, 212, 399, 5212),
    "three_body": (6, 614, 2390, 29908),
    "miniaero": (9, 1809, 3214, 42186),
}


@pytest.mark.parametrize("name", sorted(GC_PINS))
def test_full_collector_pinned_on_registry_program(name):
    passes = Session(name, "mpfr:200", size="test").run().fpvm.gc.passes
    got = (len(passes),
           sum(p.words_scanned for p in passes),
           sum(p.freed for p in passes),
           sum(p.modeled_cycles for p in passes))
    assert got == GC_PINS[name]
