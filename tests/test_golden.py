"""Byte-identity of run outputs across refactors.

Each digest covers a run's summary JSON, its series CSV and the repr of its
decision log, for every policy and policy seeds 1-3 on two small generated
traces: the default 68-object shape, and a 532-object `scaled_hotspots`
shape with a 5% cache in which loads and evictions churn. A change that is
meant to keep behaviour must keep every digest; a change that means to
alter behaviour re-records them and says why.
"""

import dataclasses
import hashlib
from functools import lru_cache

import pytest

from midcache.simharness import POLICY_NAMES, RunConfig, run
from midcache.workload import GeneratorParams, generate

POLICIES = POLICY_NAMES
SEEDS = (1, 2, 3)
SHAPES = {
    "default": (GeneratorParams(n_queries=1_000, n_updates=1_000), 0.3),
    "churn532": (dataclasses.replace(GeneratorParams.scaled_hotspots(532),
                                     size_max=2_000_000_000, selectivity=0.5,
                                     query_hotspot_weight=0.2,
                                     n_queries=1_000, n_updates=1_000), 0.05),
}


@lru_cache(maxsize=None)
def trace(shape: str):
    return generate(SHAPES[shape][0], seed=1)


def digest(shape: str, policy: str, seed: int) -> str:
    catalog, events = trace(shape)
    report = run(events, catalog, RunConfig(policy=policy, seed=seed,
                                            cache_frac=SHAPES[shape][1]))
    blob = report.summary_json() + report.series_csv() + repr(report.decision_log)
    return hashlib.sha256(blob.encode()).hexdigest()


GOLDEN = {
    ("default", "vcover", 1): "c1b5b45a1b8e3b0d502efcdc8ca0d1d42a242514270042f7e8968163df234fb9",
    ("default", "vcover", 2): "e60fe93fc0f2fd22c76bc63a7a9ab19c650beec1671df048375b72de1419a9d0",
    ("default", "vcover", 3): "c91bc660c3a5588ed7e0ae27c9256d2742f1592b7d2636cbb236e87c00cc44f5",
    ("default", "benefit", 1): "09c7370076b1835372a17bc9ab16766a7e0ca26e1fd5e5486b0f3b9708f4425d",
    ("default", "benefit", 2): "66f4d1993fcf9a70d9778baea2fb00608f39c0883f855f177d4a90875fedbee4",
    ("default", "benefit", 3): "de45ff8d25b53d4d6b2af0be874281ed6ce70c1abfd6d7febf9f0e9eb4514ad9",
    ("default", "nocache", 1): "a415576e4281ed6de6f161d8990bb1c7c10f788b94b242ee9bb994fd4e07128d",
    ("default", "nocache", 2): "52f7a2b8c4a3269ac91ed39cb65e53a145a0cada63df3508272fa4f2723f02f3",
    ("default", "nocache", 3): "cfa878d72739220f814be9b0d04254928ef7dcc4e1b27fc831b31d7fdb34ae15",
    ("default", "replica", 1): "bde13a04a728dee743ae00b0f129e77b71addc32cb11882f2f5b3a27f0709c85",
    ("default", "replica", 2): "0b91712898f5b4b827a6a446ecd610422a83a7840121cf7f3fbb6bfd10acd1e3",
    ("default", "replica", 3): "d17fc8b7ec3fe030a2e08b13b88d9f81882cffddde2115eb3bb3b4496ca11f15",
    ("default", "soptimal", 1): "8812dfb9105d11d8a2bae6dfb3bd057227aa3b2b2ccf9621561862cf3c8bc332",
    ("default", "soptimal", 2): "ae550da0dd6973cf9512baf4b0c9384dde5e1f575df0d7b268e370715e36e6a9",
    ("default", "soptimal", 3): "498a6ac50a76381b9de9a7573fbf7b1efe0b0ca98d882e4fc3f025bb720fccc0",
    ("churn532", "vcover", 1): "98a5266f19982966ad1aab6b697c7a92cbff4f5e25b76c1172ddb548a463ceb5",
    ("churn532", "vcover", 2): "fb8f8ba26b45915d27a811d2e89fbe3a17e8b2f03293e196fe013a553296b652",
    ("churn532", "vcover", 3): "3a55bc30d5f75b422f6477a799ed70de3b7eba764dd007a2c61c0a4f29b2e5e1",
    ("churn532", "benefit", 1): "15b58177e697f9071549f664196fa6c68c9f4bbe396ed11966d75871449374c4",
    ("churn532", "benefit", 2): "79c10786cf45ec38051430a51b2392811cbbaa0dec3c6ee11a440b1852c26207",
    ("churn532", "benefit", 3): "c0201ea1c2ee51de594b6e5b9ec9f23b4996b3f620c55bf76c8c1d2ee58069b0",
    ("churn532", "nocache", 1): "007857c7afbe235b7e0e9949ce05ad95fc3733d3c9b9e9d326f83a76e5f1e36b",
    ("churn532", "nocache", 2): "9e3742329d01de1fd29868072d8b8d3df2c02bb6102124587c03dff732c2538f",
    ("churn532", "nocache", 3): "591dca900d46e36ca526a0723da00e7206f82c48dd938db7cbd76fc10b8b8a7a",
    ("churn532", "replica", 1): "b0dd977881f81dda7df0ad0c611280537ad6161149f5961dc88f1630770ab59d",
    ("churn532", "replica", 2): "0cce2b90e583664aa70b5c5b6e71a6e98e8818bb2df59d5464f3ac055080fed2",
    ("churn532", "replica", 3): "1e09529ffdfc4ddf44a3758b6a6680252d4a13d0dfb55a881f275d2acf04ac93",
    ("churn532", "soptimal", 1): "72806560465a20857666f0a407470a99633c3337c00efe40730a3a8ce8182b6e",
    ("churn532", "soptimal", 2): "d666b62ab5c6c272f3f7f26360d0ce2407e89450f3fd8b582989ea5332f89d31",
    ("churn532", "soptimal", 3): "13ef8952e7dcfbf8ab768b62af26d7cee8f422e0469783d95c5c169840df76e3",
}


@pytest.mark.parametrize("shape,policy,seed", sorted(GOLDEN))
def test_run_outputs_byte_identical(shape, policy, seed):
    assert digest(shape, policy, seed) == GOLDEN[shape, policy, seed]


def test_golden_covers_every_policy_seed_and_shape():
    assert set(GOLDEN) == {(s, p, n) for s in SHAPES for p in POLICIES for n in SEEDS}
