"""Five extra run configs as a byte check: each is built in a temporary
directory from generate_synthetic, run in-process by `run --svg`, and its
results rebuilt by `report --svg`; every file of both directories must hash
as REFERENCE records it. The configs cover what perfbench's seed-0 workloads
do not: 3 datasets of 300 test series with all 9 methods, a T=60 dataset at
master seed 7, a binary dataset under the anomaly costs, and two method
subsets (one with its own alpha grid).

Regenerate the table with `PYTHONPATH=src python tests/test_config_hashes.py`;
a change that moves a report byte must not need to."""

import contextlib
import hashlib
import io
import json
import os

import numpy as np
import pytest

from ects_bench import cli, trigger
from ects_bench.data import Dataset, SeriesSet, generate_synthetic, save_dataset


def _two_classes(ds):
    """ds restricted to its classes 0 and 1."""
    def part(series):
        keep = series.labels < 2
        return SeriesSet(tuple(np.array(series.ids)[keep].tolist()), series.values[keep], series.labels[keep])
    return Dataset(ds.name, part(ds.train), part(ds.test), 2, ds.length)


# name -> (datasets, config keys beside datasets and output_dir, records)
CONFIGS = {
    "criterion7": (
        [generate_synthetic(15, 100, 100, 0.3, seed=seed, name=f"synthetic-{seed}") for seed in (1, 2, 3)],
        {"methods": list(trigger.METHODS)}, 89_100),
    "t60_seed7": (
        [generate_synthetic(60, 40, 40, 0.3, seed=6, name="t60")],
        {"methods": list(trigger.METHODS), "seed": 7}, 11_880),
    "anomaly": (
        [_two_classes(generate_synthetic(12, 50, 50, 0.3, seed=8, name="binary"))],
        {"methods": list(trigger.METHODS), "cost_setting": "anomaly"}, 9_900),
    "calimera_economy": (
        [generate_synthetic(15, 30, 30, 0.3, seed=9, name="subset")],
        {"methods": ["calimera_myopic", "economy", "calimera"], "alpha_grid": [0.05, 0.33, 0.9]}, 810),
    "myopic": (
        [generate_synthetic(15, 30, 30, 0.3, seed=10, name="myopic")],
        {"methods": ["economy_myopic", "calimera_myopic"]}, 1_980),
}


def _hashes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def build(name, root):
    """(records, file hashes of `run`, file hashes of `report`'s rebuild) of
    config name, built under the directory root."""
    datasets, keys, _ = CONFIGS[name]
    manifests = []
    for ds in datasets:
        save_dataset(ds, os.path.join(root, ds.name))
        manifests.append(os.path.join(root, ds.name, "manifest.json"))
    results, rebuilt = os.path.join(root, "results"), os.path.join(root, "rebuilt")
    config = os.path.join(root, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(dict(keys, datasets=manifests, output_dir=results), fh)
    with contextlib.redirect_stdout(io.StringIO()):  # each command prints the paths it wrote
        assert cli.main(["run", "--config", config, "--svg"]) == 0
        assert cli.main(["report", "--results", results, "--out", rebuilt, "--svg"]) == 0
    with open(os.path.join(results, "records.csv"), encoding="utf-8") as fh:
        records = sum(1 for _ in fh) - 1
    return records, _hashes(results), _hashes(rebuilt)


# sha256 of every file `run --svg` writes per config; `report --svg` rebuilds each byte for byte.
REFERENCE = {
    "anomaly": {
        "pairwise.csv": "33ea645daf5cd45fed9d8a666864a5d6ad160cca5825f1449fa9d658b17b0d86",
        "pareto.csv": "b38a4cce0096dfec0fff0d639ec9fd8bc0fc6be70e1ed12fcfe570994b496965",
        "ranks.csv": "1971497204df811aedbfacefeaea6774150e2cdba3fefbcd36483b2e6d2e1453",
        "ranks.svg": "f9111e8d85459d5b3e17275e599909f121016e6db3c79e3d7c2d6bf0c18277cf",
        "records.csv": "328deff835cbf596dbb64c26ce87aa2c01e3fe2e34b4b382b4889c0fa0a5deea",
        "summaries.csv": "5d33688c285fe3ae76c15ac2cf9655707b98cc3e25cb1866d5c1d6745ff9e2ce",
        "timelines.json": "f4937cb6eeac984b1e32d59c09672821d7bd2a3abd7025c5bd525269333067eb",
    },
    "calimera_economy": {
        "pairwise.csv": "ab382fab0e80c858fb6da24b3ffb10afb8e2b4b2d4c85cf52931f74a76040f0e",
        "pareto.csv": "038a1cf2c3721195fb9bc13d63be6b9e57315bbe9c7b983054b82b333610c74d",
        "ranks.csv": "0fa3408b079834421fb5f90f1fbe278ca99f65908f1ee30a9f3fedcbdce6ede3",
        "ranks.svg": "864d26de28692721299cfb9180b7191da4d189107dcd28f5da4dd6724681b8a1",
        "records.csv": "fa720a6f92b3a5c463dca148cbd4dd109fc53c6c4a9b8d615ae598c4ab0f0a7a",
        "summaries.csv": "f6de0e83ab3e5670822770dc07d2c629560ab28d7d959dbdc4222e5b37cdc434",
        "timelines.json": "aa9b407ce76e37b78ceed28a699cc8fe9115bfec3bbbf2108553fd61d1ad1031",
    },
    "criterion7": {
        "pairwise.csv": "570c6e5c52f2a22f3e8a243a78df3a4a65a4f2e240ed35e9e4142a532e2005a4",
        "pareto.csv": "51d2dbe3db694cad1bdd1509a73483080936132a37dff19e261d0e34f5d73b20",
        "ranks.csv": "b7c189d52db0e29ab34f57d3e4683f2333aa578b2587be501280d88677e4f059",
        "ranks.svg": "8cd12a0719d07b1c43009e6ad577604b4468c61b6ee3ac6b0866490f151cec5f",
        "records.csv": "882d2fdee642b09cab241e1504bc455f219a134bb9c776086c9fde81b0f13197",
        "summaries.csv": "37d30b313264462762f8e1242a32fa94fd33cf1b2675ec95365e8722c613d967",
        "timelines.json": "f71f73d9590e0c71ff34984cd69a0528d838780a0bed93b3a4fd17d4220326a5",
    },
    "myopic": {
        "pairwise.csv": "ff36d2db1bbff2edc553dd72cf83b8be339e2a73b2290f079793afdacbc3fd20",
        "pareto.csv": "f82a80e7b164384e1727cb05ca535e8c82378ed7704265ab5a7961420cae2020",
        "ranks.csv": "defdc933b359ca88ac07016d2e1522fe632f484cb4afc46c0e80f50f5cc0ce0d",
        "ranks.svg": "cf2ad135e6ae1702d677cf6689a58a787a03a45c831849f0f00ee8730032ac72",
        "records.csv": "eb54f8b31cad1d0137a83c8cbf8c7ba9b98945629d9dd4e5b36961a583fd5307",
        "summaries.csv": "94e20890753390eef78e47d9d39b4292f4fcb8af83735f9f51fdfc10782f290a",
        "timelines.json": "f9875e3ee93fd9853f535a27a4d0f7732be4f453e52f1bc9b83daacda46824b3",
    },
    "t60_seed7": {
        "pairwise.csv": "c21ae53ff485369d9df2a5405e6a3a8b44818284e1daf07ff06ae689516ff843",
        "pareto.csv": "034fca0462a7c5f667185af7103063e6aca4c04a7996cf87831082744c4d9e8a",
        "ranks.csv": "80aabc3478be42f3f5f477e641f60064162edad99ea9a395499a6a3b1e6a9376",
        "ranks.svg": "aa1d0e55c5616fd356300887c70c0d8bdf032362b6a57e99bf237ee26579eac1",
        "records.csv": "999ea392c736c074234c1aefc4a966c516446c682b85aae6a299e1bfbe0be385",
        "summaries.csv": "6630625d36a3874f345087bcac8b95ffcc4c3909c96866765b5cdf137c3035ea",
        "timelines.json": "9a62a11b81c8fff955f66766c3e727aff57558a49b453d48e43bdd3ffcf4d8b6",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_files_hash_as_reference(tmp_path, name):
    records, written, rebuilt = build(name, str(tmp_path))
    assert records == CONFIGS[name][2]
    assert written == REFERENCE[name]
    assert rebuilt == REFERENCE[name]


if __name__ == "__main__":
    import tempfile

    table = {}
    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as root:
            records, written, rebuilt = build(name, root)
        assert records == CONFIGS[name][2] and written == rebuilt, name
        table[name] = written
    print(json.dumps(table, indent=4))
