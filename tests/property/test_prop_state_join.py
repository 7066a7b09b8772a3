"""The dict-based analysis states join exactly like the tuple-based
states they replaced.

The VSA (``AbsState``) and the interval-range pass (``FPState``) used
to keep their stack slots in a tuple of ``(a-loc, value)`` pairs
sorted by ``repr`` of the a-loc.  The reference joins below are those
implementations, verbatim up to taking the parts of a state as
arguments.  On random registers and stacks — with slots shared by
identity, equal but distinct, changed, or present on one side only —
the new joins must build the same state, value for value (compared by
``repr``, so even ``-0.0`` against ``0.0`` counts), and must agree
with the reference on whether the state moved: that decision is what
re-queues a worklist key, so agreeing on it keeps the pop order, the
per-key join counts and hence the widened fixpoint unchanged.
"""

import copy
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.domain import (BOTTOM, TOP, HeapAddr, Num, RegState,
                                   StackAddr, join_vals, widen_vals)
from repro.analysis.ranges import FBOT, FTOP, FPState, Rng, _join_fp
from repro.analysis.si import SI, SI_TOP
from repro.analysis.vsa import AbsState


# --------------------------------------------------------------------------- #
# reference implementations (the tuple-based states)                          #
# --------------------------------------------------------------------------- #

def _ref_stack_get(stack, key, absent):
    for k, v in stack:
        if k == key:
            return v
    return absent


def ref_abs_join(regs_a, stack_a, regs_b, stack_b, widen):
    op = widen_vals if widen else join_vals
    regs = tuple(op(a, b) for a, b in zip(regs_a, regs_b))
    keys = {k for k, _ in stack_a} | {k for k, _ in stack_b}
    items = []
    for k in keys:
        items.append((k, join_vals(_ref_stack_get(stack_a, k, BOTTOM),
                                   _ref_stack_get(stack_b, k, BOTTOM))))
    items.sort(key=lambda kv: repr(kv[0]))
    return regs, tuple(items)


def ref_fp_join(xmm_a, stack_a, xmm_b, stack_b, widen):
    xmm = tuple(_join_fp(a, b, widen) for a, b in zip(xmm_a, xmm_b))
    keys = {k for k, _ in stack_a} & {k for k, _ in stack_b}
    items = []
    for k in keys:
        v = _join_fp(_ref_stack_get(stack_a, k, FTOP),
                     _ref_stack_get(stack_b, k, FTOP), widen)
        if v is not FTOP:
            items.append((k, v))
    items.sort(key=lambda kv: repr(kv[0]))
    return xmm, tuple(items)


def as_tuple(stack: dict) -> tuple:
    return tuple(sorted(stack.items(), key=lambda kv: repr(kv[0])))


# --------------------------------------------------------------------------- #
# strategies                                                                   #
# --------------------------------------------------------------------------- #

FNS = (0x400000, 0x400100)
SITES = (0x400200, 0x400300)
KEYS = st.tuples(st.just("s"), st.sampled_from(FNS),
                 st.sampled_from(range(-48, 8, 8)))

sis = st.one_of(
    st.integers(-24, 24).map(SI.const),
    st.builds(lambda lo, n, s: SI.range(lo, lo + n * s, s),
              st.integers(-24, 24), st.integers(1, 6),
              st.sampled_from([1, 2, 4, 8])),
    st.just(SI_TOP),
)
abs_vals = st.one_of(
    st.just(BOTTOM), st.just(TOP),
    st.builds(Num, sis),
    st.builds(StackAddr, st.sampled_from(FNS), sis),
    st.builds(HeapAddr, st.sampled_from(SITES), sis),
)

_BOUNDS = [-math.inf, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, math.inf]
rngs = st.builds(
    lambda a, b, err, integral: Rng(min(a, b), max(a, b), err, integral),
    st.sampled_from(_BOUNDS), st.sampled_from(_BOUNDS),
    st.sampled_from([0.0, 2.0 ** -53, 1e-10, 1e-4, math.inf]),
    st.booleans())
fp_vals = st.one_of(st.just(FTOP), st.just(FBOT), rngs)


def _derive(draw, value, fresh):
    """A value for the other side of a join: the same object, an equal
    copy, or a fresh draw."""
    how = draw(st.sampled_from(["same", "equal", "fresh"]))
    if how == "equal" and isinstance(value, (Num, StackAddr, HeapAddr, Rng)):
        return copy.copy(value)  # BOTTOM/TOP/FTOP/FBOT stay singletons
    return value if how != "fresh" else draw(fresh)


def _pair(draw, n_regs, vals, stack_vals):
    """Two (registers, stack) sides sharing some slots by identity."""
    regs_a = [draw(vals) for _ in range(n_regs)]
    regs_b = [_derive(draw, v, vals) for v in regs_a]
    stack_a = draw(st.dictionaries(KEYS, stack_vals, max_size=8))
    stack_b = {}
    for k, v in stack_a.items():
        if draw(st.integers(0, 4)):  # mostly kept, sometimes one-sided
            stack_b[k] = _derive(draw, v, stack_vals)
    stack_b.update(draw(st.dictionaries(KEYS, stack_vals, max_size=3)))
    return tuple(regs_a), stack_a, tuple(regs_b), stack_b


@st.composite
def abs_pairs(draw):
    return _pair(draw, 16, abs_vals, abs_vals)


@st.composite
def fp_pairs(draw):
    return _pair(draw, 16, fp_vals, rngs)


# --------------------------------------------------------------------------- #
# properties                                                                   #
# --------------------------------------------------------------------------- #

@given(abs_pairs(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_abs_state_join_matches_tuple_join(pair, widen):
    regs_a, stack_a, regs_b, stack_b = pair
    a = AbsState(RegState(regs_a), stack_a)
    b = AbsState(RegState(regs_b), stack_b)
    new = a.join(b, widen=widen)
    ref_regs, ref_stack = ref_abs_join(regs_a, as_tuple(stack_a),
                                       regs_b, as_tuple(stack_b), widen)
    assert repr(new.regs.regs) == repr(ref_regs)
    assert repr(as_tuple(new.stack)) == repr(ref_stack)
    # the worklist re-queue decision (_merge_in) is unchanged
    ref_moved = (ref_regs, ref_stack) != (regs_a, as_tuple(stack_a))
    assert (new is not a and new != a) == ref_moved
    assert (new is a) == (not ref_moved)
    # joins copy, never mutate
    assert a.stack == dict(stack_a) and b.stack == dict(stack_b)


@given(abs_pairs(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_reg_state_combine_matches_pointwise(pair, widen):
    regs_a, _, regs_b, _ = pair
    ra, rb = RegState(regs_a), RegState(regs_b)
    op = widen_vals if widen else join_vals
    ref = tuple(op(x, y) for x, y in zip(regs_a, regs_b))
    new = ra.widen(rb) if widen else ra.join(rb)
    assert repr(new.regs) == repr(ref)
    assert (new is ra) == (ref == regs_a)


@given(fp_pairs(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_fp_state_join_matches_tuple_join(pair, widen):
    xmm_a, stack_a, xmm_b, stack_b = pair
    a = FPState(xmm_a, stack_a)
    b = FPState(xmm_b, stack_b)
    new = a.join(b, widen=widen)
    ref_xmm, ref_stack = ref_fp_join(xmm_a, as_tuple(stack_a),
                                     xmm_b, as_tuple(stack_b), widen)
    assert repr(new.xmm) == repr(ref_xmm)
    assert repr(as_tuple(new.stack)) == repr(ref_stack)
    ref_moved = (ref_xmm, ref_stack) != (xmm_a, as_tuple(stack_a))
    assert (new is not a and new != a) == ref_moved
    assert (new is a) == (not ref_moved)
    assert a.stack == dict(stack_a) and b.stack == dict(stack_b)


@given(st.lists(st.tuples(KEYS, st.one_of(fp_vals, abs_vals)),
                max_size=12))
@settings(max_examples=200, deadline=None)
def test_stack_set_matches_tuple_stack_set(writes):
    """Store sequences: the VSA keeps every value, the range pass
    erases a slot on storing FTOP."""
    vsa = AbsState(RegState.bottom(), {})
    fp = FPState((FTOP,) * 16, {})
    ref_vsa, ref_fp = (), ()
    for key, val in writes:
        vsa = vsa.stack_set(key, val)
        fp = fp.stack_set(key, val)
        items = [(k, v) for k, v in ref_vsa if k != key] + [(key, val)]
        ref_vsa = tuple(sorted(items, key=lambda kv: repr(kv[0])))
        items = [(k, v) for k, v in ref_fp if k != key]
        if val is not FTOP:
            items.append((key, val))
        ref_fp = tuple(sorted(items, key=lambda kv: repr(kv[0])))
    assert as_tuple(vsa.stack) == ref_vsa
    assert as_tuple(fp.stack) == ref_fp
    for key, _ in writes:
        assert vsa.stack_get(key) == _ref_stack_get(ref_vsa, key, BOTTOM)
        assert fp.stack_get(key) == _ref_stack_get(ref_fp, key, FTOP)
