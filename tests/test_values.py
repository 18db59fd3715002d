"""Semantics of the immutable value classes and records.

``PDCode``, ``LaurentPoly`` and ``RationalFn`` are plain slotted classes,
and the records are named tuples; these tests pin what callers rely on:
equality and hashing, immutability, pickling and copying, construction
checks, and the printed form.
"""

import copy
import functools
import pickle

import pytest

from skeinkit.diagram import PDCode, adequacy, catalog_lookup, plan_sweep
from skeinkit.errors import ExactnessError, PDError
from skeinkit.poly import A, ONE, ZERO, LaurentPoly, RationalFn
from skeinkit.tail import StabilizationRecord, normalize

P = LaurentPoly.from_dict({-4: 1, 2: -3})


def test_pdcode_normalizes_and_validates():
    pd = PDCode([[1, "4", 2.0, 5]], 2)
    assert pd.crossings == ((1, 4, 2, 5),)
    assert all(type(x) is int for x in pd.crossings[0])
    assert pd.extra_circles == 2
    assert PDCode(crossings=[(1, 2, 3, 4)]).extra_circles == 0
    with pytest.raises(PDError):
        PDCode((), extra_circles=-1)
    with pytest.raises(PDError):
        PDCode([(1, 2, 3)])


def test_equality_and_hashing():
    pd = catalog_lookup("3_1")
    same = PDCode(list(map(list, pd.crossings)))
    assert pd == same and hash(pd) == hash(same)
    assert hash(pd) == hash((pd.crossings, pd.extra_circles))
    assert pd != PDCode(pd.crossings, 1)
    assert pd != (pd.crossings, 0)        # only PDCode equals a PDCode
    q = LaurentPoly([(2, -3), (-4, 1), (7, 0)])
    assert P == q and hash(P) == hash(q) == hash((P.terms,))
    assert P != P.terms and ZERO != 0
    assert {pd: 1}[same] == 1 and {P: 2}[q] == 2

    @functools.lru_cache(maxsize=None)
    def key(x):
        return object()

    assert key(pd) is key(same) and key(P) is key(q)

    r = RationalFn(P, A)
    assert r == RationalFn(P * A, A * A) and r != RationalFn(P)
    assert RationalFn(ONE) == 1 and RationalFn(P) == P
    with pytest.raises(TypeError):
        hash(r)
    with pytest.raises(ExactnessError):
        RationalFn(P, ZERO)


def test_fields_cannot_be_assigned():
    pd = catalog_lookup("3_1")
    r = RationalFn(P, A)
    for obj, field in ((pd, "crossings"), (pd, "extra_circles"),
                       (P, "terms"), (r, "num"), (r, "den")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.other = 1
    rep = adequacy(pd)
    with pytest.raises(AttributeError):
        rep.a_adequate = False


def test_pickle_and_deepcopy_round_trip():
    pd = catalog_lookup("6_2")
    r = RationalFn(P, A)
    rep = adequacy(pd)
    plan = plan_sweep(pd, cut=[1])
    for obj in (pd, PDCode(pd.crossings, 3), P, ZERO, r, rep, plan):
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj),
                     copy.copy(obj)):
            assert type(back) is type(obj) and back == obj


def test_reprs_are_unchanged():
    pd = catalog_lookup("3_1")
    assert repr(pd) == ("PDCode(crossings=((6, 4, 1, 3), (4, 2, 5, 1), "
                        "(2, 6, 3, 5)), extra_circles=0)")
    assert repr(PDCode([[1, 4, 2, 5]], 2)) == \
        "PDCode(crossings=((1, 4, 2, 5),), extra_circles=2)"
    assert repr(P) == "<LaurentPoly A^-4-3*A^2>"
    assert repr(RationalFn(P, A)) == "<RationalFn (A^-4-3*A^2)/(A)>"
    assert repr(RationalFn(P)) == "<RationalFn A^-4-3*A^2>"
    assert repr(adequacy(pd)) == ("AdequacyReport(a_adequate=True, "
                                  "b_adequate=True, a_circles=2, "
                                  "b_circles=3)")
    assert repr(plan_sweep(pd, cut=[1])) == (
        "SweepPlan(order=(0, 2, 1), program=((0, ()), (4, ((0, 5), "
        "(3, 6))), (4, ((0, 4), (2, 5), (3, 6)))), max_width=4, "
        "identity=b'\\x01\\x00')")
    assert repr(normalize(LaurentPoly.from_dict({0: 1, -4: -2}))) == \
        "QSeries(sign=1, shift_halves=0, step_halves=2, coeffs=(1, -2))"
    assert repr(StabilizationRecord(3, True, None, 0.5)) == \
        "StabilizationRecord(color=3, verdict=True, mismatch=None, seconds=0.5)"
