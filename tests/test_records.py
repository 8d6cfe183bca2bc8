"""The six record classes: construction, repr, equality, hashing, immutability
and pickling, and a cold import that loads none of dataclasses, inspect and json."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys

import pytest

import laddercrystal
from laddercrystal import CrystalGraph, JMDecomposition, RegClass, RimHook, SignatureWord, VerificationReport
from laddercrystal.crystal import SignatureEntry

ENTRIES = (SignatureEntry("+", (1, 2)), SignatureEntry("-", (2, 1)))

# (class, field values in order, repr) for each frozen record.
FROZEN = [
    (
        RimHook,
        {"boxes": ((1, 2), (1, 1)), "shape": "horizontal"},
        "RimHook(boxes=((1, 2), (1, 1)), shape='horizontal')",
    ),
    (
        JMDecomposition,
        {"mu": (1,), "r": 0, "s": 1, "rho": (1,), "sigma": ()},
        "JMDecomposition(mu=(1,), r=0, s=1, rho=(1,), sigma=())",
    ),
    (
        CrystalGraph,
        {"ell": 2, "model": "classical", "depth": 1, "levels": (((),), ((1,),)), "edges": (((), (1,), 0),)},
        "CrystalGraph(ell=2, model='classical', depth=1, levels=(((),), ((1,),)), edges=(((), (1,), 0),))",
    ),
    (
        RegClass,
        {"representative": (2,), "members": ((2,), (1, 1))},
        "RegClass(representative=(2,), members=((2,), (1, 1)))",
    ),
    (
        SignatureWord,
        {"entries": ENTRIES, "order": "classical"},
        "SignatureWord(entries=(SignatureEntry(sign='+', box=(1, 2)), SignatureEntry(sign='-', box=(2, 1))),"
        " order='classical')",
    ),
]
IDS = [cls.__name__ for cls, _, _ in FROZEN]


@pytest.mark.parametrize("cls, fields, text", FROZEN, ids=IDS)
def test_frozen_records_construct_print_and_compare(cls, fields, text):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert repr(by_keyword) == repr(by_position) == text
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)
    assert {by_keyword, by_position} == {by_keyword}
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
    first = next(iter(fields))
    assert cls(**{**fields, first: None}) != by_keyword


@pytest.mark.parametrize("cls, fields, text", FROZEN, ids=IDS)
def test_frozen_records_reject_assignment(cls, fields, text):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert repr(record) == text


@pytest.mark.parametrize("cls, fields, text", FROZEN, ids=IDS)
def test_frozen_records_survive_pickle_and_deepcopy(cls, fields, text):
    record = cls(**fields)
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is cls
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == text


def test_rim_hook_length_is_its_box_count():
    hook = RimHook(boxes=((1, 3), (1, 2), (2, 2)), shape="neither")
    assert len(hook) == 3
    assert hook.box_set == frozenset({(1, 3), (1, 2), (2, 2)})


@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_rim_hook_replace_and_make_take_any_box_count(count):
    # _make checked len(), which counts boxes, so a 3-box hook raised
    # "TypeError: Expected 2 arguments, got 3"
    hook = RimHook(tuple((1, col) for col in range(count, 0, -1)), "horizontal")
    turned = hook._replace(shape="vertical")
    assert turned == RimHook(hook.boxes, "vertical") and len(turned) == count
    assert RimHook._make([hook.boxes, "horizontal"]) == hook
    assert hook._replace(boxes=((1, 1),)) == RimHook(((1, 1),), "horizontal")
    with pytest.raises(TypeError):
        RimHook._make([hook.boxes])
    with pytest.raises(ValueError):
        hook._replace(size=count)


def test_signature_word_iterates_its_entries():
    word = SignatureWord(ENTRIES, "ladder")
    assert list(word) == list(ENTRIES)
    assert word.word == "+-"
    assert list(SignatureWord((), "classical")) == []


def test_verification_report_is_a_mutable_unhashable_record():
    report = VerificationReport(suite="demo", ell=3, params={"nmax": 2})
    assert repr(report) == "VerificationReport(suite='demo', ell=3, params={'nmax': 2}, checks=0, failures=[])"
    assert report == VerificationReport("demo", 3, {"nmax": 2})
    assert report == VerificationReport("demo", 3, {"nmax": 2}, 0, [])
    with pytest.raises(TypeError):
        hash(report)
    report.check(False, (1,), 0, "a", "b")
    report.checks += 1
    report.ell = 4
    assert report.checks == 2 and report.ell == 4
    assert report.failures == [{"input": "1", "residue": 0, "expected": "a", "actual": "b"}]
    assert report != VerificationReport("demo", 3, {"nmax": 2})
    for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert type(twin) is VerificationReport
        assert twin == report and repr(twin) == repr(report)
        assert twin.failures is not report.failures


def test_verification_reports_never_share_failures():
    first = VerificationReport("demo", 3, {})
    second = VerificationReport("demo", 3, {})
    assert first.failures is not second.failures
    first.check(False, (), None, 1, 2)
    assert second.failures == [] and second.passed and not first.passed


def test_importing_the_package_loads_no_dataclasses_or_inspect():
    # A fresh interpreter: the test run itself has imported inspect.
    src = os.path.dirname(os.path.dirname(os.path.abspath(laddercrystal.__file__)))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import laddercrystal, laddercrystal.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
