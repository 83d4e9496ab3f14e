"""Deterministic placeholder media.

Stand-ins for real text-to-x generators: cheap, dependency-free, and a
pure function of (kind, prompt, seed), so two runs of the same plan give
byte-identical artifacts.  Formats are deliberately headerware-simple
(binary PPM, PCM WAV, uncompressed Y4M) so tests can check fields.
"""

from __future__ import annotations

import io
import math
import wave

from .errors import UnknownModelKind
from .meta import KNOWN_MODEL_KINDS, Modality, modality_for_kind

IMAGE_SIDE = 64
AUDIO_RATE = 16000
AUDIO_SECONDS = 1
VIDEO_FRAMES = 8

EXTENSION_FOR_MODALITY = {
    Modality.IMAGE: "ppm",
    Modality.AUDIO: "wav",
    Modality.VIDEO: "y4m",
}

# Accepted extensions for user-supplied attachments, by claimed modality.
ATTACHMENT_EXTENSIONS = {
    Modality.IMAGE: ("png", "jpg", "jpeg", "bmp", "gif", "ppm", "webp"),
    Modality.AUDIO: ("wav", "mp3", "flac", "ogg", "m4a"),
    Modality.VIDEO: ("mp4", "y4m", "avi", "mov", "mkv", "webm"),
}


def modality_for_path(path: str) -> Modality | None:
    """Infer modality from a file extension; None when unknown."""
    ext = path.rsplit(".", 1)[-1].lower() if "." in path else ""
    for modality, extensions in ATTACHMENT_EXTENSIONS.items():
        if ext in extensions:
            return modality
    return None


def render_placeholder(kind: str, prompt: str, seed: int) -> bytes:
    """Render placeholder bytes for one invocation.  Rendering imports
    numpy and rng on its first call, so the path tables above cost neither."""
    from .rng import SplitMix64, content_hash, mix64

    if kind not in KNOWN_MODEL_KINDS:
        raise UnknownModelKind(f"cannot render kind {kind!r}")
    modality = modality_for_kind(kind)
    h = content_hash(kind, prompt)
    if modality is Modality.AUDIO:
        return _render_audio(h)
    stream = SplitMix64(mix64(h, seed))
    if modality is Modality.IMAGE:
        return _render_image(stream)
    return _render_video(stream)


def _render_image(stream) -> bytes:
    header = f"P6\n{IMAGE_SIDE} {IMAGE_SIDE}\n255\n".encode("ascii")
    body = stream.bytes(IMAGE_SIDE * IMAGE_SIDE * 3)
    return header + body


def _render_audio(h: int) -> bytes:
    # 1 s sine; the pitch encodes the request content, nothing else.
    # The sine's argument keeps the left-to-right order 2.0*pi*freq*n/rate,
    # and rint rounds half to even like round(); golden tests pin every pitch.
    import numpy as np

    freq = 200 + (h % 1800)
    amp = 16383
    n = np.arange(AUDIO_RATE * AUDIO_SECONDS)
    samples = np.rint(amp * np.sin(2.0 * math.pi * freq * n / AUDIO_RATE))
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(AUDIO_RATE)
        w.writeframes(samples.astype("<i2").tobytes())
    return buf.getvalue()


def _render_video(stream) -> bytes:
    side = IMAGE_SIDE
    plane = side * side  # Y plane; U and V are quarter size (4:2:0)
    frame_bytes = plane + plane // 2
    out = bytearray(f"YUV4MPEG2 W{side} H{side} F8:1 Ip A1:1 C420\n".encode("ascii"))
    for _ in range(VIDEO_FRAMES):
        out += b"FRAME\n"
        out += stream.bytes(frame_bytes)
    return bytes(out)
