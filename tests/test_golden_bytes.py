"""Golden SHA-256 values for the deterministic byte generators.

Every value here was computed with the scalar, pure-Python generators
(one splitmix64 draw and one math.sin call at a time).  Any faster
implementation must reproduce them exactly: placeholder artifacts,
embeddings, manifests and traces are promised to be byte-identical
across versions, not only from one rerun to the next.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from modalkit.instruct import Attachment
from modalkit.media import _render_audio, render_placeholder
from modalkit.meta import Modality
from modalkit.pipeline import ScriptedBackend, ScriptedRule, UserRequest, run
from modalkit.projection import encode_stub
from modalkit.rng import SplitMix64
from modalkit.zoo import default_registry

MAX_SEED = 2**64 - 1
CAT = "A photo of a cat"
UNICODE = "ünïcødé 猫 🐱"
AT_CAP = "x" * 2048  # the longest prompt the protocol admits


def sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


RENDER_GOLDEN = [
    ("text-to-image", CAT, 0, "a93bbbb954409845c9fdc72e79a387eccc9d985b8d84bee30cf130175fb9e58b"),
    ("text-to-image", CAT, 7, "60cea9d756ed66ae6744f731495e30b3996de2397af005bbbdea361ee1f05486"),
    ("text-to-image", UNICODE, MAX_SEED, "b2e72fc9c5062575e10470810687e839cbb79a8355010894e707698ecbd7bf2d"),
    ("text-to-image", AT_CAP, 12345678901234, "9432bb7d955db22fc4198f2327c347f7fc4ae2e04085a7c8c2f62e805d909544"),
    ("text-to-audio", CAT, 0, "cb1a74a8acd131d283e974612723d6cab09f6935387c6331239f77e89c0dd335"),
    ("text-to-audio", CAT, 7, "cb1a74a8acd131d283e974612723d6cab09f6935387c6331239f77e89c0dd335"),
    ("text-to-audio", UNICODE, MAX_SEED, "3e1925f2614da670dfc872d8d80a4e76d263568e4c374e4a236f2a1803b4a39d"),
    ("text-to-audio", AT_CAP, 12345678901234, "fa56f76ad909c90cbd589ae01a51090334580decd58ca34532f02c1b692b65ac"),
    ("text-to-video", CAT, 0, "d8ada4fc11867e73aa0c418b5549e1166397b9579cdb5537bf958f558c55b0cc"),
    ("text-to-video", CAT, 7, "636a0817b333ee36a248e15e6aec39d72d76b774ee430dcaaffb9e06b9f218c7"),
    ("text-to-video", UNICODE, MAX_SEED, "bbf9195e108cdea779e14d6b522bc3aa580412eb827feac8201d3d296821f6e2"),
    ("text-to-video", AT_CAP, 12345678901234, "c763072073ef4691d0be253afae356db36914249bb153ec4f06b2276136c73ab"),
]


@pytest.mark.parametrize("kind,prompt,seed,digest", RENDER_GOLDEN)
def test_render_placeholder_golden(kind, prompt, seed, digest):
    assert sha(render_placeholder(kind, prompt, seed)) == digest


def test_every_audio_pitch_golden():
    # The pitch is 200 + h % 1800 Hz, so h in 0..1799 covers every clip
    # the audio renderer can emit.
    digest = hashlib.sha256()
    for h in range(1800):
        digest.update(_render_audio(h))
    assert digest.hexdigest() == "d14a72afd28761df2b79727099e65c07733644533fa1deef2f54600365089670"


# (seed, n) -> (SHA-256 of bytes(n), the next_u64 drawn right after)
BYTES_GOLDEN = {
    (0, 1): ("5a6e7a4754af8e7f47fc9493040d853e7b01e39d537cb1dd353c93b7ae58eb3d", 0x6E789E6AA1B965F4),
    (0, 7): ("29c0ae14de285cdeddad5e51f476316e31f2c48f3e194e3bc6c379c38259e3f4", 0x6E789E6AA1B965F4),
    (0, 8): ("ce31a0874129872dc43ee51174eb9042517a915fae0065f2789bdb9e82c229ca", 0x6E789E6AA1B965F4),
    (0, 9): ("74416fea0d6315823dd4978acba8eaa882801dc9634ab059c9c466c0472e71b5", 0x06C45D188009454F),
    (0, 12288): ("c82e5f6cc87820a76a8dff7c05542de1858c0a3cfdd2d338a809761cdea3204c", 0xD58E37A27BC5FC88),
    (0, 49157): ("d68827ab6125a6a3152abe2aaf07bacbd8e7154248697f4651c4d1c0247ebe5f", 0x431BA64CBDC0C573),
    (7, 1): ("414a21e525a759e3ffeb22556be6348a92d5a13e40b61a0805f36f18c2909513", 0x044C3CD7F43C661C),
    (7, 7): ("7e98002316e75cec879019351c22d4c150d6d3c9ee76c23a6323b9668daf6b69", 0x044C3CD7F43C661C),
    (7, 8): ("e73b9fda21813ce617e3df9dd54d49f5b686211d68b1ee56d5c9d83c1902be9a", 0x044C3CD7F43C661C),
    (7, 9): ("deab6640677f097c7bd935c5eebe77810df39c6279496beea47a79c95b9986c7", 0xE6984080BAB12A02),
    (7, 12288): ("ae4441d3794b56b6b31a9539cf3e612054822e1887a5f7564103d3320508f7e1", 0x2CE232FDE3DE5E39),
    (7, 49157): ("17dab4fcd095e64b070f2fa459346276b1babd71849747a7c6cc38d91ee167ec", 0xB13AE6D4D1FAAC2A),
    (MAX_SEED, 1): ("36a9e7f1c95b82ffb99743e0c5c4ce95d83c9a430aac59f84ef3cbfab6145068", 0xE99FF867DBF682C9),
    (MAX_SEED, 7): ("b6bd65d0ec4b42a71b77cc8e88cfb2d7c7ccf46c5519a169eb43f1c80a1ac90b", 0xE99FF867DBF682C9),
    (MAX_SEED, 8): ("6c07bebfed773baff4ea8d8adc4fbbc450d917bc8047075865a4a507c1af72eb", 0xE99FF867DBF682C9),
    (MAX_SEED, 9): ("508f25b7b9040aff3bb90f439005da39dd9b573128f4b2891e39632e633eb6f1", 0x382FF84CB27281E9),
    (MAX_SEED, 12288): ("0b7d02614640e52b6b11a65ea0354dd80d489f74e3478d36d712f89a1e8017c2", 0x5F79C3B0DE216E5B),
    (MAX_SEED, 49157): ("a67da97a61b7a57c803c781aa8f572752b999b1d323b777fdffeed697067d872", 0xA812B91635C9E81C),
}


@pytest.mark.parametrize("seed,n", list(BYTES_GOLDEN))
def test_splitmix_bytes_golden(seed, n):
    digest, following = BYTES_GOLDEN[seed, n]
    stream = SplitMix64(seed)
    blob = stream.bytes(n)
    assert len(blob) == n
    assert sha(blob) == digest
    assert stream.next_u64() == following


# (seed, n) -> (SHA-256 of the values packed as <f8, the next_u64 after, first values)
FLOATS_GOLDEN = {
    (0, 1): (
        "d795fb666f8bef116a6f6b2b6bebf5a748442726d882a574f5c607d8bdf81cdb",
        0x6E789E6AA1B965F4,
        [0.7666216164272854],
    ),
    (7, 1000): (
        "e8a40c9549b0a4558ab25075533e14beb7159e3d588c552639a87745b9596853",
        0xCF1B8D545D1615CA,
        [-0.2203405032174569, -0.9664234109436876],
    ),
    (MAX_SEED, 33): (
        "8765b121aa479ab974ab461443bee571c7354fbb5114bf06f3d45152c1a8853f",
        0xF32A883A6FE8C041,
        [0.7878858405663691, 0.8251944071889064],
    ),
    (12345678901234, 1024): (
        "f0ac689ba8e111c9e531da973fae414e0687766e098f39b2f13901330c8e4896",
        0x7AABB7C2C482BAEE,
        [0.23995075363195206, -0.7496922902954724],
    ),
}


@pytest.mark.parametrize("seed,n", list(FLOATS_GOLDEN))
def test_unit_floats_golden(seed, n):
    digest, following, head = FLOATS_GOLDEN[seed, n]
    stream = SplitMix64(seed)
    values = stream.unit_floats(n)
    assert sha(struct.pack(f"<{n}d", *values)) == digest
    assert values[: len(head)] == head
    assert stream.next_u64() == following


WAV_LIKE = b"RIFF....WAVE"
RAMP = bytes(range(256)) * 4

# (dim, modality, data, seed) -> SHA-256 of the unit vector as <f8
STUB_GOLDEN = [
    (1, Modality.IMAGE, WAV_LIKE, 0, "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
    (1, Modality.AUDIO, RAMP, MAX_SEED, "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
    (1, Modality.VIDEO, WAV_LIKE, 0, "e77817b649821c634355a917817c1224a360514b1244fe09e832bac4e8ea4440"),
    (64, Modality.IMAGE, RAMP, MAX_SEED, "db1d1e182fc96d3713496bf5584218654beb4951beb3cf8995cd7bfde6cf7bbf"),
    (64, Modality.AUDIO, WAV_LIKE, 0, "0923b58797c71b3b0d57704fbcb09eae932cfa14973dcf52fcedceffc8a78b49"),
    (64, Modality.VIDEO, RAMP, MAX_SEED, "28c37c7460ae2963dfb20e8f90a19ae062668b8b3750d1a712b86b80c4d55fc0"),
    (1024, Modality.IMAGE, WAV_LIKE, 0, "a058e68fb69a732f24fdeabed41d575ec959ff404b175b3c2379a10c7fbffd50"),
    (1024, Modality.AUDIO, RAMP, MAX_SEED, "678cd5f83142f2b255a2b42b0a01618b984bd305c1e219499fb147f7bf52f542"),
    (1024, Modality.VIDEO, WAV_LIKE, 0, "20fdebfb7512e6a4dcffcc7c3c62e7c6c6314ffd94ee044108cfabd8be31a732"),
]


@pytest.mark.parametrize("dim,modality,data,seed,digest", STUB_GOLDEN)
def test_encode_stub_golden(dim, modality, data, seed, digest):
    vec = encode_stub(data, modality, dim, seed)
    assert sha(vec.values.astype("<f8").tobytes()) == digest


MANIFEST_SHA = "c079e2de2962a8165e222454e641493e06f0c7fe3ffa80326e5d53a825ced1ec"
TRACE_SHA = "57039d8c85dcd53a50738203151020357c3960577534a9b954174a1bb21f4dd2"  # timings off
ARTIFACT_SHA = "86f23b0a14b818dd4f7fe181de7a6d6f8866a801daf9dfa494b944866cef74a7"


def test_cat_scenario_manifest_and_trace_golden(tmp_path, monkeypatch):
    # Relative paths keep the attachment path in trace.json independent
    # of where the test runs.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cat_meowing.wav").write_bytes(render_placeholder("text-to-audio", "a cat meowing", 0))
    backend = ScriptedBackend(
        [
            ScriptedRule(
                respond='{"text":"","invocations":[{"model":"text-to-image","prompt":"A photo of a cat"}]}',
                instruction_contains="image",
            ),
            ScriptedRule(respond='{"text":"Nothing to generate.","invocations":[]}'),
        ]
    )
    req = UserRequest(
        "Generate an image of an animal based on the provided vocalization.",
        (Attachment("cat_meowing.wav", Modality.AUDIO),),
    )
    run(req, default_registry(), backend, "ws", seed=5, include_timings=False)
    ws = tmp_path / "ws"
    assert sha((ws / "manifest.json").read_bytes()) == MANIFEST_SHA
    assert sha((ws / "trace.json").read_bytes()) == TRACE_SHA
    assert sha((ws / "artifact_0_text-to-image.ppm").read_bytes()) == ARTIFACT_SHA
