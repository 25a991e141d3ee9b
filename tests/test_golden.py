"""Byte-identity of run outputs across refactors.

Each digest covers a run's summary JSON, its series CSV and the repr of its
decision log, for every policy and policy seeds 1-3 on small generated
traces: the default 68-object shape; a 532-object `scaled_hotspots` shape
with a 5% cache in which loads and evictions churn; and a cover-heavy shape
like the benchmark's `write68` (4:1 updates on the queried hotspots), at a
30% cache and at a 5% cache where `vcover` evicts objects whose updates are
still on its interaction graph; and the default shape at 20k events, where
vcover's graph lives long enough for scoped covers to matter. A change that
is meant to keep behaviour must keep every digest; a change that means to
alter behaviour re-records them and says why.
"""

import dataclasses
import hashlib
from functools import lru_cache

import pytest

from midcache import vcover
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
    "write68": (dataclasses.replace(GeneratorParams(),
                                    update_hotspots=GeneratorParams().query_hotspots,
                                    n_queries=400, n_updates=1_600), 0.3),
}
SHAPES["write68_evict"] = (SHAPES["write68"][0], 0.05)
SHAPES["default20k"] = (GeneratorParams(n_queries=10_000, n_updates=10_000), 0.3)
# Generator seed per shape (default 1). Seed 4 makes every vcover policy seed
# evict objects with updates on the graph at the 5% cache.
GEN_SEEDS = {"write68_evict": 4}


@lru_cache(maxsize=None)
def trace(shape: str):
    return generate(SHAPES[shape][0], seed=GEN_SEEDS.get(shape, 1))


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
    ("write68", "vcover", 1): "a3e2a1227b2e4fef09d2320a19796cedf69ed049de4a5a02a96899404fc44689",
    ("write68", "vcover", 2): "d0d0608a9432789a4f7425ba62874bfdb48f7ab1be8d7810d135fa3c63caa992",
    ("write68", "vcover", 3): "b614abc965e116d62846a1218588325c80e707e26c588ff67f660019145553c4",
    ("write68", "benefit", 1): "e622fbf25706b5b0ed8af17c4ff4daea2aa35a318b0a0841c49ff41921a0da0f",
    ("write68", "benefit", 2): "869668e029f8595262dc3b4a1028f28ec1106113d5b1fd95631ceb5669fab32b",
    ("write68", "benefit", 3): "a64a72c92c07c2bb86ef4444aec3c4883679f9b764b7c15cf3488b6a56970038",
    ("write68", "nocache", 1): "2d11cb315f616ea5e06e09a21f0ba81ea94cf5a1cbc802720d15497d4c6c84a3",
    ("write68", "nocache", 2): "dff7c326a17aeaceccb244a8528a95f3e204d38504731253a2785305346455eb",
    ("write68", "nocache", 3): "5634fec9120100609c9b9b6930b8b690e673e83e008275f2f3e91bae143d62b0",
    ("write68", "replica", 1): "9f17f644a985a58b0f132436892feda2eab781868ef8e36e1f19958f0062ff06",
    ("write68", "replica", 2): "cc9f361a71885f736021504934c3bbce6d2f7458805a88d6409497cdb81518c1",
    ("write68", "replica", 3): "edbd78a285ea34813dd7c05228f5430ab0a6007287fe41cec72d2abc89f96681",
    ("write68", "soptimal", 1): "907708ed3b55a8fd573a54a776b78f449c02d79b13d725ba16f094d315ed381f",
    ("write68", "soptimal", 2): "13de938b8736ac16c072f5d1b90a3ac2d8b8df0c98c4400b1369436d9d75537d",
    ("write68", "soptimal", 3): "c65957f9f4e25c29b7d6b61df9d6ebfd63d3b9987a13ba867209b75d4ce8e9bc",
    ("write68_evict", "vcover", 1): "4a65f7228ea1472d35720c041a53378f4f685a44026ce6077c1fa30a1bd64deb",
    ("write68_evict", "vcover", 2): "38cd06678139414ecfab83c52071433fa5d47a97df15bce36c1ccd28f07d1148",
    ("write68_evict", "vcover", 3): "781ed9fba140d00bf7914872712db4c5fbee696fa18961051aa2f32f30181742",
    ("write68_evict", "benefit", 1): "50db2bb408b52cfb18373dcd054ea69bfd186dd5e07912108440a71e65ee405b",
    ("write68_evict", "benefit", 2): "bd33fb4981e1d46b5c67228eb9eb8b781034c8c1da01e280bb5945bc8cfcb8e0",
    ("write68_evict", "benefit", 3): "a155abb39e8739963e08ca0492574969f785b65c2fb7048c968f4c45abf4bed7",
    ("write68_evict", "nocache", 1): "4a7fecbb9c6608625d18e56d5664bdf15e1888360f8e130e93ed7787ddaca94a",
    ("write68_evict", "nocache", 2): "8be1dcd4d60f60e0d0e508ad3a6e5d23db4a8ce5af34a9062a671f7a5065fdba",
    ("write68_evict", "nocache", 3): "6810bfb14e48d38d3653f915ccbd942395d1177e051a00b1560231005d552113",
    ("write68_evict", "replica", 1): "c99a3998f091cb99a158fa786770dcfa4683c09216b118f06935ef7f477f84e9",
    ("write68_evict", "replica", 2): "32d564686ff6effad5faeb2d28a4daaa32577f28e5f6bfed19325921fed437f3",
    ("write68_evict", "replica", 3): "c3d906e6d066118de0bf4b06a8948773526461366572d01e15c318cde4b986d4",
    ("write68_evict", "soptimal", 1): "de1f85d517082d65090490faf0720099a175b79394a243f4a1979bc4b702e279",
    ("write68_evict", "soptimal", 2): "c324cdea3bd90361971d2ad659fc07cfa8266f165fbd9f86482a07ef82b361c5",
    ("write68_evict", "soptimal", 3): "0e122f9b23ddf462f72a259e65e554441020c570247a1cc5c65216a7d6ed6a62",
    ("default20k", "vcover", 1): "36eb85b6e475b238629291f4c021a3ba3f33ea8b0fcc913ce8ae5e20af467cc7",
    ("default20k", "vcover", 2): "3d139cccd2b74f78dce6e5459200d6c463255565dc22f3ae13c7a111418d5a9a",
    ("default20k", "vcover", 3): "765ab58188aaf4c4a0c21163933816f23ac98c37d94dcd4dfe7c74ac1b691a34",
    ("default20k", "benefit", 1): "cb423120cbf1391cef7b1130d863de732bfe6adf3ace7fb4236a153bfb2d17f1",
    ("default20k", "benefit", 2): "1d1b3483f17606d530b86808c299ac00d382b4d3b3c92b98f2976b29797c749c",
    ("default20k", "benefit", 3): "60d6b4e79442e94101848f98630ed40a385cf1796a0a610b09fd877242964749",
    ("default20k", "nocache", 1): "3735f8399414a026b34013d2eec58bf459c7250a68a3fd847eae6ca5758c2223",
    ("default20k", "nocache", 2): "576319cb2f2b5c03f71f0309d10d3247560cd45d8ff1f82a399a4df371481b36",
    ("default20k", "nocache", 3): "a432fb228c61ba8bde8b2c583c99f504cb26238953447cfb92f0dc06364c8ba5",
    ("default20k", "replica", 1): "809ba1e4eb6e254667cb14c53bff0329ed01d00ddbc3bf8adfca8d553522bce7",
    ("default20k", "replica", 2): "925f22f67ca0696fcb9e5fcc2e8109cf231e917f5d5f1ca5921a47e292ed5d4b",
    ("default20k", "replica", 3): "ff4ee5d8e0b2bec220be1d0116ee0615ee74daad113f841d8f7ef35983d83063",
    ("default20k", "soptimal", 1): "92de911846119c8dfc20e820e83e875f2570135b3ea91ab083238a90f2a56baf",
    ("default20k", "soptimal", 2): "52f905fa5559e9d5b339f348022ffa7d3e01c9ff25faf971cfcddf2f960218e9",
    ("default20k", "soptimal", 3): "7448b7e422b3ba1a799b1773873a5ee6612bbf90e597e598ac9a83798d5fb7bf",
}


@pytest.mark.parametrize("shape,policy,seed", sorted(GOLDEN))
def test_run_outputs_byte_identical(shape, policy, seed):
    assert digest(shape, policy, seed) == GOLDEN[shape, policy, seed]


def test_golden_covers_every_policy_seed_and_shape():
    assert set(GOLDEN) == {(s, p, n) for s in SHAPES for p in POLICIES for n in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
def test_evict_shape_drops_graph_updates(seed, monkeypatch):
    # The point of `write68_evict`: evictions that remove update nodes the
    # cover engine still holds, so its flow loses arcs between covers.
    drops = []
    forget = vcover.VCoverPolicy._forget_object_updates

    def counting(self, oid):
        drops.append(sum(u.uid in self.graph.update_weight
                         for u in self.cache.outstanding.get(oid, ())))
        return forget(self, oid)

    monkeypatch.setattr(vcover.VCoverPolicy, "_forget_object_updates", counting)
    catalog, events = trace("write68_evict")
    run(events, catalog, RunConfig(policy="vcover", seed=seed,
                                   cache_frac=SHAPES["write68_evict"][1]))
    assert any(drops)
