"""Motion-JPEG decoder pipeline case study.

The paper targets the Simulink-based MPSoC design flow of Huang et al.
(DAC 2007), whose published case studies are Motion-JPEG and H.264
decoders.  This module models a (simplified, but end-to-end executable)
Motion-JPEG decoder as the kind of UML model the paper's front-end would
hand that flow:

Five pipeline threads, one sequence diagram::

    Tparse -> Tvld -> Tiq -> Tidct -> Trender

- ``Tparse``  strips the stream header (an offset);
- ``Tvld``    variable-length decode (toy: affine de-mapping);
- ``Tiq``     inverse quantization (scale by the quantizer step);
- ``Tidct``   inverse transform (toy: gain + bias per sample);
- ``Trender`` clamps to pixel range and writes the display.

The arithmetic is a toy stand-in for the real 8×8 block math, but it is
*invertible*: :func:`encode` applies the exact inverse chain, so examples
and tests can check pixel-perfect reconstruction through the generated
CAAM — the sort of bit-true verification the real flow performs.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..uml.builder import ModelBuilder
from ..uml.model import Model

#: Toy codec constants (chosen so every step is exactly invertible in
#: IEEE-754 doubles: Q is a power of two, offsets are integers).
HEADER_OFFSET = 7.0
VLD_SCALE = 2.0
VLD_BIAS = -3.0
Q_STEP = 8.0
IDCT_GAIN = 0.5
PIXEL_BIAS = 128.0

#: The pipeline threads, in dataflow order.
THREADS = ["Tparse", "Tvld", "Tiq", "Tidct", "Trender"]


def encode(pixels: List[float]) -> List[float]:
    """The inverse chain: pixels → the bitstream the decoder consumes."""
    stream = []
    for pixel in pixels:
        value = (pixel - PIXEL_BIAS) / IDCT_GAIN   # forward DCT (toy)
        value = value / Q_STEP                      # quantization
        value = (value - VLD_BIAS) / VLD_SCALE      # VLC (toy)
        value = value + HEADER_OFFSET               # framing
        stream.append(value)
    return stream


def build_model() -> Model:
    """The decoder UML model: five threads on a deployment-free model.

    No deployment diagram on purpose — the §4.2.3 automatic allocation
    (or the DSE explorer) decides the CPU count, exactly the story the
    paper tells for this flow.
    """
    b = ModelBuilder("mjpeg")
    for thread in THREADS:
        b.thread(thread)
    b.io_device("Io")

    sd = b.interaction("decode")
    sd.call("Tparse", "Io", "getBitstream", result="bs")
    sd.call("Tparse", "Platform", "sub", args=["bs", HEADER_OFFSET], result="tokens")
    sd.call("Tparse", "Tvld", "setTokens", args=["tokens"])

    sd.call("Tvld", "Tvld", "vld", args=["tokens"], result="coeffs")
    sd.call("Tvld", "Tiq", "setCoeffs", args=["coeffs"])

    sd.call("Tiq", "Platform", "gain", args=["coeffs", Q_STEP], result="freq")
    sd.call("Tiq", "Tidct", "setFreq", args=["freq"])

    sd.call("Tidct", "Tidct", "idct", args=["freq"], result="samples")
    sd.call("Tidct", "Trender", "setSamples", args=["samples"])

    sd.call("Trender", "Platform", "saturation", args=["samples", 0.0, 255.0],
            result="pixels")
    sd.call("Trender", "Io", "setPixels", args=["pixels"])
    return b.build()


def behaviors() -> Dict[str, Callable]:
    """Executable behaviours for the decoder's S-functions.

    Both are affine; each ``codegen_spec`` names the callback's exact
    IEEE operations (``a * x + b``) for the static-schedule backend.
    """

    def vld(tokens: float) -> float:
        return VLD_SCALE * tokens + VLD_BIAS

    def idct(freq: float) -> float:
        return IDCT_GAIN * freq + PIXEL_BIAS

    vld.codegen_spec = ("affine", VLD_SCALE, VLD_BIAS)  # type: ignore[attr-defined]
    idct.codegen_spec = ("affine", IDCT_GAIN, PIXEL_BIAS)  # type: ignore[attr-defined]
    return {"vld": vld, "idct": idct}


def sample_pixels(count: int = 16) -> List[float]:
    """A deterministic test pattern within pixel range."""
    return [float((17 * index + 31) % 256) for index in range(count)]
