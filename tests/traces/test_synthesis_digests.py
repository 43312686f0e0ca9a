"""Pinned synthesis digests: the exact bytes every synthesized trace has.

``test_determinism.py`` compares a trace with itself (in
process and across processes), so a generator rewrite that changed
every byte would still pass it.  These digests were computed once and
committed; any change to a suite or zoo stream, however small, fails
here.  A deliberate stream change must regenerate them (and every
golden fixture and result digest downstream).

Every digest is checked on both kernel legs: ``none`` synthesizes the
CBP traces with the pure workload, ``cext`` with its C twin (skipped
when the C build is unavailable).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.sim.fast import compiled
from repro.traces.sources import ZOO_SOURCE_NAMES, get_source
from repro.traces.suites import CBP1_TRACE_NAMES, CBP2_TRACE_NAMES, trace_spec
from repro.traces.workload import synthesize

#: sha256 of ``repr((name, pcs, takens, insts))`` at 4,000 branches.
SHORT_BRANCHES = 4_000
SHORT_DIGESTS = {
    "FP-1": "b05286343a2be9ce3c4667e6f51ca9b52e900bd9a3d127ce9fa10e89f18aec00",
    "FP-2": "5b3be29e98e69e460e2f69c7648d68e8abfe78be96e378099815a63a302e8178",
    "FP-3": "3e69dfbe29cad9f8513148d533881a7a43743df3f6ca778af6d9d7a2221ac1ba",
    "FP-4": "6c56e96b86dbbada7724c44c3b16c9a506fd426e5c852bec4139b73afa56a07f",
    "FP-5": "60983de44b5da8b753ac3472aaf54e8fa61abc61484113456c9b7b4f2879a67c",
    "INT-1": "ce5ee19219bd7e3d2856856d166ec360d625c06273991966fe263bf9f2cdcc29",
    "INT-2": "a7e8493792f4b57387ca324b9f487b567e20f10e4eef8002d8f87c0012137cb5",
    "INT-3": "3f5a636ee51d3307c3c7514de738b1dc9e1d2acf7d8ec7376e142e8e672d7969",
    "INT-4": "1ab9f2ab97e079921fb45e4dab1a41603c651cf30e2a20d0859460d185b7be4f",
    "INT-5": "27c78268c27966054cd9e15bb7ab1fac495912bf7555d761fda6a3356b50501d",
    "MM-1": "d1b6d70bb45ec18b5ffbdda23f8350b86d75bc83d6f5de1c49d6faeaf0e30b07",
    "MM-2": "b3fd3dc4268a66e84131446eaafa115f502095946f649cc15a407b91219ec9d2",
    "MM-3": "a74761d6a892a94d04d0cedb6fbf52824c1e8640d46181c3e67d38fafba2f62e",
    "MM-4": "57b82f4b3293e6c98c0c7e393d1e2437f5de8e08b64e2a6840abd80e72e35b18",
    "MM-5": "47a3f89cc5f4fb4e021130f3e39ed98f89835276e7c49b2730edec932b9e09fd",
    "SERV-1": "422529e04543bfe4feb5d91e1ea12baefee99ba864fd4150240d5455b1e5fa12",
    "SERV-2": "244cb06026a9ebd15316f8de2d7e9703fe33932eb9f25f5cdf6518ffefb1c780",
    "SERV-3": "27ee85bde9232672861ede2c39371eac2900c85a746334ccdd626c76b53b2c9f",
    "SERV-4": "c4bd2ede0670a37d0cd4112b21789cf4500a87369ffc24d2051b17b84ade9e39",
    "SERV-5": "cc85f0adee0ca52a1d2ce9ec621abd3713d16b30505712a3c65069b4b3045082",
    "164.gzip": "278f7fdceafad6ef0774d82dafdce3033426ad2c591a487390022a9abc0590c1",
    "175.vpr": "c63ca1f4cac9639468ced15abe71160b0c24b6b992e9b1095c21fa5ee55f0f0a",
    "176.gcc": "fe7ee5b7b5b1cfa379f6819e9ebc35919da75b53b5341641016e9340a5c3a2db",
    "181.mcf": "22301cd15fe69dfd9715cb80f0695ccc46afe7910b5e71622e009836afdf56ca",
    "186.crafty": "4e9080bef0f28c06ef59eaf5bf77deb978acb2c8e4194ef2447b5cab4ed28f4d",
    "197.parser": "adfa26cf1bced9d6123a20e324ca9de1f62099e3d4d2bd5facf4231a22fe05d1",
    "201.compress": "b6ef830cb179f8db2668361411945c9894cc44f3a280c09886ffbb74a391694b",
    "202.jess": "f4dc509c3fddf2f7eb145cac40fdecf466a5e8d2e31cab76312b3700423ac356",
    "205.raytrace": "3cb9fa3c8da2bfa9c9ca1c0697441eea01a2330461fa5b2346c43a82e0a10d7e",
    "209.db": "b439d2e448029a10ff20230160929e55f8a5e1402d5a08849b314a448dc65656",
    "213.javac": "7e8d9a8d41320975b2c8bbd7fdeb99c686a9483c04c74b022b6eb5f3974bf482",
    "222.mpegaudio": "22428e5f04fd1431d440119ae2bd9af1ada53716e08704f7c0aa45b250fe8036",
    "227.mtrt": "ad2f87cc138a354746a2ccb0376b07ec386937eb773568fe86c02deab6e470f5",
    "228.jack": "0990384593fca4682aea8bf5498f6850e0b96ab180a843b55fb3a4011f26fbf2",
    "252.eon": "8f847f4cdba3e7a960e6119f9accc4587cea38fe304b025e2d4910b2f3e0b27f",
    "253.perlbmk": "34506f36cdebb82a45ee0b4b26d486984dbd61a0be8c77c5f02253f7e0021a2d",
    "254.gap": "03dbeb6af4f5acaf20ef9c88d68a4ac7693ca3b16deb3107dd19d423bde364fd",
    "255.vortex": "933676614b0522b68deaafc8d6c173d6d632a8162c991848bed94eaf80e242b1",
    "256.bzip2": "5cb5904aa2b64f5fdd5ecac62e1a893551c295ec14bfce853e9b5db38f70d950",
    "300.twolf": "9c79461952d8e6b964dd8e591785e87ed85f9714ffbcdcb58440ccb7f73d7bfc",
    "zoo.markov": "d5164585261f48cca07f0e4f016022f5bbc18ce9202f2bad5f1babb2e6f30179",
    "zoo.loopnest": "489614a98145724d42d86f6dbc3754b8f7d5142d2f2e385cdd808cc392e19426",
    "zoo.phase": "6f3de2659ef9dae022007cf551ecdad869b065ea600d812ad1b3d588c3970d69",
    "zoo.interference": "a4d60783522d4a61293fbff7e479e2f4a173f4a0072fb95ed90ae211aa211ad4",
    "zoo.jrs-inversion": "9a6a6ba2c3b3ed91f73f4641f243a35bb37524882776037123bed198fd61336a",
    "zoo.tag-storm": "4b7fccf975cef9bfa61f3b6a41056d766b7bad28ed195d44fdfc05bbf61d3e15",
    "zoo.xor": "9e2698be2e7f4d008fe570c5d186f579fc57e4bf310a539efbad988ef5b78a48",
}

#: The same digest at the default 50,000-branch paper length.
LONG_BRANCHES = 50_000
LONG_DIGESTS = {
    "INT-1": "7007b55cae7b462227113470253bb6a4799eadecdc9057704e9171d6645e72aa",
    "SERV-1": "89dc388816cc160b40d6ad7f0e97bd10e75a3118f355dca38102746bc6c27801",
}

#: ``zoo.jrs-inversion``'s period, found by a simulation search.
JRS_INVERSION_PERIOD = 26


def _columns_digest(trace) -> str:
    payload = repr((trace.name, list(trace.pcs), list(trace.takens), list(trace.insts)))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(params=("none", "cext"))
def kernel_leg(request, monkeypatch):
    """Pin one kernel leg; ``cext`` skips without the C build."""
    monkeypatch.setenv(compiled.PROVIDER_ENV, request.param)
    if request.param == "cext" and compiled.active_provider() != "cext":
        pytest.skip(f"C kernel build unavailable "
                    f"({compiled.provider_unavailable_reason()})")
    return request.param


def _synthesize(name: str, n_branches: int):
    if name in ZOO_SOURCE_NAMES:
        return get_source(name).generate(n_branches)
    return synthesize(trace_spec(name), n_branches)


def test_every_trace_name_is_pinned():
    assert set(SHORT_DIGESTS) == {
        *CBP1_TRACE_NAMES, *CBP2_TRACE_NAMES, *ZOO_SOURCE_NAMES,
    }


@pytest.mark.parametrize("name", sorted(SHORT_DIGESTS))
def test_short_trace_digest(kernel_leg, name):
    assert _columns_digest(_synthesize(name, SHORT_BRANCHES)) == SHORT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LONG_DIGESTS))
def test_long_trace_digest(kernel_leg, name):
    assert _columns_digest(_synthesize(name, LONG_BRANCHES)) == LONG_DIGESTS[name]


def test_jrs_inversion_searched_period():
    assert get_source("zoo.jrs-inversion").period == JRS_INVERSION_PERIOD
