import importlib
import pickle
import re
import types
from pathlib import Path

import pytest

import talkfilter as tf

SUBMODULES = {"cli", "core", "equilibrium", "filter_opt", "multi_sender", "oracle",
              "_intview", "_simplex"}
REMOVED = {"PrefixSums", "SortedDisagreement", "precompute_sums", "pivot_q",
           "sort_disagreement"}
RECORDS = ["StateRecord", "BinaryFilter", "GeneralFilter", "StateClassification",
           "UtilityProfile", "ICReport", "EquilibriumOutcome", "GeneralProfile",
           "SenderICWitness", "Deviation", "OptimizerResult", "LPInstance",
           "CandidateOutcome", "GridSpec", "RandomGameSpec"]


def test_star_import_binds_exactly_all():
    assert len(set(tf.__all__)) == len(tf.__all__)
    for name in tf.__all__:
        assert hasattr(tf, name), name
    namespace = {}
    exec("from talkfilter import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tf.__all__)


def test_all_exports_no_module_or_test_scaffolding():
    exported = set(tf.__all__)
    assert not exported & (SUBMODULES | REMOVED)
    assert not any(isinstance(getattr(tf, name), types.ModuleType) for name in exported)
    assert not any(name.startswith("_") for name in exported)


def _readme_groups() -> dict[str, list[str]]:
    """The README's Public API list: each module's names, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    items = section[section.index("\n- `"):]
    return {label: re.findall(r"`(\w+)`", names)
            for label, names in re.findall(r"^- `(\w+)`:(.*?)(?=^- |\Z)", items, re.M | re.S)}


def test_readme_public_api_list_is_all():
    groups = _readme_groups()
    assert list(groups) == ["core", "equilibrium", "filter_opt", "multi_sender", "oracle"]
    assert [name for names in groups.values() for name in names] == tf.__all__


def test_every_name_is_read_from_its_module_on_each_access(monkeypatch):
    """No name is bound in the package: a swap in its module shows, and so does the undo."""
    assert set(tf.__all__) <= set(dir(tf))
    for module_name, names in _readme_groups().items():
        module = importlib.import_module(f"talkfilter.{module_name}")
        for name in names:
            original = getattr(module, name)
            assert getattr(tf, name) is original, name
            swapped = object()
            monkeypatch.setattr(module, name, swapped)
            assert getattr(tf, name) is swapped, name
            monkeypatch.undo()
            assert getattr(tf, name) is original, name
    with pytest.raises(AttributeError):
        tf.no_such_name


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen_tuples_with_field_reprs(name):
    cls = getattr(tf, name)
    values = [f"v{i}" for i in range(len(cls._fields))]
    record = cls(*values)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, "changed")
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert repr(record) == f"{name}(" + ", ".join(
        f"{field}={value!r}" for field, value in zip(cls._fields, values)) + ")"
    assert hash(record) == hash(tuple(record))
    assert record == tuple(values) and record._replace() == record
    assert pickle.loads(pickle.dumps(record)) == record
