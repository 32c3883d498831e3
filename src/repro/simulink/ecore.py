"""E-core style XML serialization of Simulink models.

The paper's step 2 produces "an XML file, which conforms to the Simulink
CAAM meta-model ... represented using the E-core format (XML-like)"; step 3
consumes this intermediate and optimizes it before the final ``.mdl``
emission.  This module writes and reads that intermediate artifact so the
full four-step pipeline of Fig. 2 is observable (and the optimization pass
can, like the paper's tool, run on the persisted intermediate).
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import Dict, List

from .caam import CPU_ROLE, THREAD_ROLE, ROLE_PARAM, CaamModel, CpuSubsystem, ThreadSubsystem
from .model import Block, SimulinkError, SimulinkModel, SubSystem, System

ECORE_NS = "http://repro.example.org/caam/1.0"


class EcoreError(SimulinkError):
    """Raised on malformed E-core input."""


#: Characters XML 1.0 cannot carry at all, escaped or not.
_XML_FORBIDDEN = "\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
_ATTR_SPECIALS = re.compile(f'[&<>"\r\n\t{_XML_FORBIDDEN}]')
_ATTR_FORBIDDEN = re.compile(f"[{_XML_FORBIDDEN}]")
_ATTR_ESCAPES = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\r": "&#13;", "\n": "&#10;", "\t": "&#09;",
})


def _attr(text: str) -> str:
    """Escape an attribute value exactly as ``xml.etree`` serializes it.

    A value XML 1.0 cannot represent raises :class:`EcoreError`, since
    :func:`from_ecore_string` would reject the printed document.
    """
    if _ATTR_SPECIALS.search(text) is None:
        return text
    forbidden = _ATTR_FORBIDDEN.search(text)
    if forbidden is not None:
        raise EcoreError(
            f"cannot print {text!r}: XML 1.0 forbids {forbidden.group()!r}"
        )
    return text.translate(_ATTR_ESCAPES)


def to_ecore_string(model: SimulinkModel) -> str:
    """Serialize a model to E-core style XML.

    Printed line by line, byte for byte as ``xml.etree`` serializes the
    same tree indented by two spaces: the XML declaration, ``" />"`` for
    empty elements, no newline after the root's closing tag.
    """
    out = [
        "<?xml version='1.0' encoding='utf-8'?>",
        f'<caam:Model xmlns:caam="{ECORE_NS}" name="{_attr(model.name)}">',
    ]
    _print_parameters(out, model.parameters, "  ")
    _print_system(out, model.root, "  ")
    out.append("</caam:Model>")
    return "\n".join(out)


def write_ecore(model: SimulinkModel, path: str) -> None:
    """Serialize a model to an E-core XML file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_ecore_string(model))


def _close(out: List[str], start: int, pad: str, tag: str) -> None:
    """End the element opened at ``out[start]``, as ``" />"`` if it is empty."""
    if len(out) == start + 1:
        out[start] = out[start][:-1] + " />"
    else:
        out.append(f"{pad}</{tag}>")


def _print_parameters(out: List[str], parameters: Dict[str, object], pad: str) -> None:
    for key, value in sorted(parameters.items()):
        if isinstance(value, (bool, int, float, str)):
            out.append(
                f'{pad}<parameter key="{_attr(key)}" value="{_attr(str(value))}"'
                f' type="{type(value).__name__}" />'
            )


def _print_system(out: List[str], system: System, pad: str) -> None:
    start = len(out)
    out.append(f'{pad}<system name="{_attr(system.name)}">')
    inner, child = pad + "  ", pad + "    "
    for block in system.blocks:
        block_start = len(out)
        try:
            out.append(
                f'{inner}<block name="{_attr(block.name)}" type="{_attr(block.block_type)}"'
                f' inputs="{block.num_inputs}" outputs="{block.num_outputs}">'
            )
            _print_parameters(out, block.parameters, child)
            if isinstance(block, SubSystem):
                _print_system(out, block.system, child)
        except EcoreError as exc:
            raise EcoreError(f"block {block.name!r}: {exc}") from None
        _close(out, block_start, inner, "block")
    for line in system.lines:
        line_start = len(out)
        out.append(
            f'{inner}<line srcBlock="{_attr(line.source.block.name)}"'
            f' srcPort="{line.source.index}">'
        )
        for dest in line.destinations:
            out.append(
                f'{child}<destination dstBlock="{_attr(dest.block.name)}"'
                f' dstPort="{dest.index}" />'
            )
        _close(out, line_start, inner, "line")
    _close(out, start, pad, "system")


def _parse_typed(value: str, type_name: str) -> object:
    if type_name == "bool":
        return value == "True"
    if type_name == "int":
        return int(value)
    if type_name == "float":
        return float(value)
    return value


def from_ecore_string(text: str) -> SimulinkModel:
    """Parse E-core XML back into a model (CAAM when CPU roles present)."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise EcoreError(f"invalid XML: {exc}") from exc
    name = root.get("name", "model")
    system_el = root.find("system")
    if system_el is None:
        raise EcoreError("no <system> element under model root")
    has_cpus = any(
        _block_role(block_el) == CPU_ROLE
        for block_el in system_el.findall("block")
    )
    model: SimulinkModel = CaamModel(name) if has_cpus else SimulinkModel(name)
    for pel in root.findall("parameter"):
        model.parameters[pel.get("key", "")] = _parse_typed(
            pel.get("value", ""), pel.get("type", "str")
        )
    _fill_system(model.root, system_el)
    return model


def read_ecore(path: str) -> SimulinkModel:
    """Read a model from an E-core XML file."""
    with open(path, "r", encoding="utf-8") as handle:
        return from_ecore_string(handle.read())


def _block_role(block_el: ET.Element) -> str:
    for pel in block_el.findall("parameter"):
        if pel.get("key") == ROLE_PARAM:
            return pel.get("value", "")
    return ""


def _fill_system(system: System, el: ET.Element) -> None:
    for bel in el.findall("block"):
        system.add(_build_block(bel))
    for lel in el.findall("line"):
        source = system.block(lel.get("srcBlock", "")).output(
            int(lel.get("srcPort", "1"))
        )
        destinations = []
        for del_ in lel.findall("destination"):
            dst = system.block(del_.get("dstBlock", ""))
            destinations.append(dst.input(int(del_.get("dstPort", "1"))))
        if not destinations:
            raise EcoreError(
                f"line from {lel.get('srcBlock')!r} has no destination"
            )
        system.connect(source, *destinations)


def _build_block(bel: ET.Element) -> Block:
    name = bel.get("name", "")
    block_type = bel.get("type", "")
    parameters: Dict[str, object] = {}
    for pel in bel.findall("parameter"):
        parameters[pel.get("key", "")] = _parse_typed(
            pel.get("value", ""), pel.get("type", "str")
        )
    if block_type == "SubSystem":
        role = parameters.get(ROLE_PARAM)
        if role == CPU_ROLE:
            sub: SubSystem = CpuSubsystem(name)
        elif role == THREAD_ROLE:
            sub = ThreadSubsystem(name)
        else:
            sub = SubSystem(name)
        sub.parameters.update(parameters)
        inner = bel.find("system")
        if inner is not None:
            _fill_system(sub.system, inner)
        sub.sync_ports()
        return sub
    return Block(
        name,
        block_type,
        inputs=int(bel.get("inputs", "1")),
        outputs=int(bel.get("outputs", "1")),
        parameters=parameters,
    )
