import re
import types
from pathlib import Path

import talkfilter as tf

SUBMODULES = {"cli", "core", "equilibrium", "filter_opt", "multi_sender", "oracle",
              "_intview", "_simplex"}
REMOVED = {"PrefixSums", "SortedDisagreement", "precompute_sums", "pivot_q",
           "sort_disagreement"}


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


def test_readme_public_api_list_is_all():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    items = section[section.index("\n- `"):]
    labels = re.findall(r"^- `(\w+)`:", items, re.M)
    assert labels == ["core", "equilibrium", "filter_opt", "multi_sender", "oracle"]
    names = [n for n in re.findall(r"`(\w+)`", items) if n not in labels]
    assert names == tf.__all__
