"""The table cache: ``assemble_table`` builds a table once per content.

An entry is keyed by the bytes of the files its feature set reads, the task
configuration, the package's source and the host's kernel selectors. A hit
gives the bits a cold assembly gives; anything else is a miss that builds
the table again, never an error.
"""

import pickle
import shutil
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from test_golden import bundles_and_cases

from agribench import featurize
from agribench.climate import GddThresholds
from agribench.dataset import CACHE_DIR, TASKS, load_dataset, read_cache_entry, write_cache_entry
from agribench.featurize import FEATURE_SET_FILES, TaskConfig, assemble_table
from agribench.synth import SynthSpec, generate

YIELD = TaskConfig(task="yield", crop="corn")


def _table_bits(table):
    return (table.task, table.feature_set, table.feature_names, table.unit_years,
            table.values.dtype, table.values.tobytes(), table.labels.dtype,
            table.labels.tobytes(), list(table.exclusion_log.items()))


def _assemble(dataset, cfg):
    """The table and whether ``assemble_table`` built it (a miss)."""
    with mock.patch.object(featurize, "_build_table", wraps=featurize._build_table) as build:
        table = assemble_table(dataset, cfg)
    return table, build.call_count == 1


def _entries(bundle):
    return sorted(p.name for p in (bundle / CACHE_DIR).glob("table.*"))


@pytest.fixture(scope="module")
def corn(tmp_path_factory):
    """A small bundle with yield and tillage labels, its loads and its warm entry."""
    root = tmp_path_factory.mktemp("table_cache")
    generate(SynthSpec(n_counties=4, fields_per_county=1, years=(2019, 2020),
                       tasks=("yield", "tillage_ratio", "tillage_class")),
             seed=7, out_dir=root / "corn")
    return root / "corn"


@pytest.fixture
def bundle(corn, tmp_path):
    """A copy of the corn bundle whose cache holds the yield RS table."""
    copy = shutil.copytree(corn, tmp_path / "corn", ignore=shutil.ignore_patterns(CACHE_DIR))
    table, built = _assemble(load_dataset(copy, FEATURE_SET_FILES["RS"]), YIELD)
    assert built and len(_entries(copy)) == 1
    return copy, _table_bits(table)


def test_golden_cases_hit_equals_cold_assembly(tmp_path):
    """On the golden bundles, every task and feature set reads back from its
    entry the bits its cold assembly built."""
    golden, _ = bundles_and_cases()
    for name in ("corn", "cover"):
        spec, seed = golden[name]
        generate(spec, seed=seed, out_dir=tmp_path / name)
    for task in TASKS:
        name = "cover" if task == "covercrop_class" else "corn"
        for feature_set in ("RS", "AEF"):
            for policy in ("drop", "impute_mean"):
                cfg = TaskConfig(task=task, crop="corn" if task == "yield" else None,
                                 feature_set=feature_set, missing_policy=policy)
                dataset = load_dataset(tmp_path / name, FEATURE_SET_FILES[feature_set])
                cold, built = _assemble(dataset, cfg)
                warm, rebuilt = _assemble(dataset, cfg)
                assert (built, rebuilt) == (True, False), cfg
                assert _table_bits(warm) == _table_bits(cold), cfg


@pytest.mark.parametrize("filename", FEATURE_SET_FILES["RS"])
def test_one_more_byte_in_a_read_file_is_a_miss(bundle, filename):
    """A blank line at the end changes a file's bytes but not its contents:
    the table is built again, the same, and its entry replaces the old one."""
    path, bits = bundle
    before = _entries(path)
    with open(path / filename, "ab") as fh:
        fh.write(b"\n")
    table, built = _assemble(load_dataset(path, FEATURE_SET_FILES["RS"]), YIELD)
    assert built and _table_bits(table) == bits
    after = _entries(path)
    assert len(after) == 1 and after != before


def test_editing_a_file_the_feature_set_does_not_read_is_a_hit(bundle):
    path, bits = bundle
    embeddings = path / "embeddings.csv"
    header, first, rest = embeddings.read_bytes().split(b"\n", 2)
    last = first[-1:]  # the last digit of the row's A63 cell
    embeddings.write_bytes(b"\n".join([header, first[:-1] + (b"1" if last == b"2" else b"2"),
                                       rest]))
    table, built = _assemble(load_dataset(path), YIELD)
    assert not built and _table_bits(table) == bits


def test_each_config_field_is_in_the_key(bundle):
    path, _ = bundle
    dataset = load_dataset(path)
    variants = {
        "task": TaskConfig(task="tillage_ratio"),
        "crop": replace(YIELD, crop="soybean"),
        "feature_set": replace(YIELD, feature_set="AEF"),
        "missing_policy": replace(YIELD, missing_policy="impute_mean"),
        "gdd_thresholds": replace(YIELD, gdd_thresholds=GddThresholds(10.0, 29.0)),
        "gcvi_minus_one": replace(YIELD, gcvi_minus_one=True),
        "gdd_per_day": replace(YIELD, gdd_per_day=True),
    }
    assert sorted(variants) == sorted(field.name for field in fields(TaskConfig))
    for name, cfg in variants.items():
        _, built = _assemble(dataset, cfg)
        assert built, name
    assert not _assemble(dataset, YIELD)[1]


@pytest.mark.parametrize("variable", ["NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES",
                                      "OPENBLAS_CORETYPE", "GLIBC_TUNABLES"])
def test_each_kernel_variable_is_in_the_key(bundle, monkeypatch, variable):
    path, bits = bundle
    dataset = load_dataset(path, FEATURE_SET_FILES["RS"])
    monkeypatch.setenv(variable, "set for this test")
    table, built = _assemble(dataset, YIELD)
    assert built and _table_bits(table) == bits


def _forge(entry, **changes):
    """Rewrite ``entry`` with some of its seven arrays replaced."""
    names = ("names", "unit_ids", "years", "labels", "values", "causes", "counts")
    arrays = dict(zip(names, read_cache_entry(entry, len(names))))
    arrays.update(changes)
    write_cache_entry(entry, entry.name, [arrays[name] for name in names])


def _truncated(entry):
    entry.write_bytes(entry.read_bytes()[:-8])


def _foreign(entry):
    """The AEF table's entry under the RS table's name."""
    assemble_table(load_dataset(entry.parents[1]), replace(YIELD, feature_set="AEF"))
    aef = next(p for p in entry.parent.glob("table.*") if p != entry)
    shutil.copyfile(aef, entry)


def _pickled(entry):
    arrays = read_cache_entry(entry, 7)
    with open(entry, "wb") as fh:
        for array in arrays:
            np.save(fh, array.astype(object), allow_pickle=True)


def _whole_pickle(entry):
    entry.write_bytes(pickle.dumps(read_cache_entry(entry, 7)))


def _forged_labels(entry):
    _forge(entry, labels=read_cache_entry(entry, 7)[3] + 1.0)


def _forged_rows(entry):
    years = read_cache_entry(entry, 7)[2].copy()
    years[0] += 100
    _forge(entry, years=years)


def _dropped_row(entry):
    arrays = read_cache_entry(entry, 7)
    _forge(entry, unit_ids=arrays[1][1:], years=arrays[2][1:], labels=arrays[3][1:],
           values=arrays[4][1:])


def _non_finite(entry):
    values = read_cache_entry(entry, 7)[4].copy()
    values[0, 0] = np.nan
    _forge(entry, values=values)


def _renamed_column(entry):
    names = read_cache_entry(entry, 7)[0].copy()
    names[0] = "Red_const"
    _forge(entry, names=names)


def _padded(entry):
    with open(entry, "ab") as fh:
        fh.write(b"\0" * 8)


@pytest.mark.parametrize("damage", [
    _truncated, _padded, _foreign, _pickled, _whole_pickle, _forged_labels, _forged_rows,
    _dropped_row, _non_finite, _renamed_column,
])
def test_damaged_entry_is_a_miss(bundle, damage):
    path, bits = bundle
    [name] = _entries(path)
    damage(path / CACHE_DIR / name)
    table, built = _assemble(load_dataset(path, FEATURE_SET_FILES["RS"]), YIELD)
    assert built and _table_bits(table) == bits
    table, built = _assemble(load_dataset(path, FEATURE_SET_FILES["RS"]), YIELD)
    assert not built and _table_bits(table) == bits


def test_edited_values_are_read_back(bundle):
    """The trust boundary: an entry may change feature values (finite, at
    the contract width), never rows or labels."""
    path, bits = bundle
    [name] = _entries(path)
    entry = path / CACHE_DIR / name
    values = read_cache_entry(entry, 7)[4] * 2.0
    _forge(entry, values=values)
    table, built = _assemble(load_dataset(path, FEATURE_SET_FILES["RS"]), YIELD)
    assert not built and np.array_equal(table.values, values)
    assert table.unit_years == bits[3] and table.labels.tobytes() == bits[7]


def test_cache_path_that_is_a_file_skips_the_write(bundle):
    path, bits = bundle
    shutil.rmtree(path / CACHE_DIR)
    (path / CACHE_DIR).write_bytes(b"not a directory")
    for _ in ("first", "second"):
        table, built = _assemble(load_dataset(path, FEATURE_SET_FILES["RS"]), YIELD)
        assert built and _table_bits(table) == bits
    assert (path / CACHE_DIR).read_bytes() == b"not a directory"


def test_dataset_without_digests_is_always_built(bundle):
    path, bits = bundle
    dataset = load_dataset(path, FEATURE_SET_FILES["RS"])
    in_memory = replace(dataset, manifest={
        name: {"path": entry["path"], "rows": entry["rows"]}
        for name, entry in dataset.manifest.items()})
    for _ in ("first", "second"):
        table, built = _assemble(in_memory, YIELD)
        assert built and _table_bits(table) == bits
