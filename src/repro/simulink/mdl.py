"""Simulink ``.mdl`` file generation and parsing.

The paper's step 4 is a model-to-text transformation producing a ``.mdl``
file "used as input in the Simulink environment".  We implement the classic
(pre-SLX) textual MDL format: nested ``Name { ... }`` sections with
``Key Value`` properties::

    Model {
      Name "crane"
      System {
        Name "crane"
        Block {
          BlockType SubSystem
          Name "CPU1"
          System { ... }
        }
        Line {
          SrcBlock "calc"
          SrcPort 1
          DstBlock "control"
          DstPort 1
        }
      }
    }

Branched lines use nested ``Branch`` sections, as real Simulink does.  The
parser reads the same dialect back, giving a full model-to-text-to-model
round trip (verified by property tests); non-serializable parameters such
as S-function Python callbacks are skipped on write.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .caam import CPU_ROLE, THREAD_ROLE, ROLE_PARAM, CaamModel, CpuSubsystem, ThreadSubsystem
from .model import Block, Line, Port, SimulinkError, SimulinkModel, SubSystem, System


class MdlError(SimulinkError):
    """Raised on malformed MDL text."""


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _quote(text: str) -> str:
    if "\\" in text:
        text = text.replace("\\", "\\\\")
    if '"' in text:
        text = text.replace('"', '\\"')
    return f'"{text}"'


def to_mdl(model: SimulinkModel) -> str:
    """Serialize a model (plain or CAAM) to MDL text."""
    out = ["Model {", f"  Name {_quote(model.name)}"]
    _print_parameters(out, model.parameters, "  ")
    _print_system(out, model.root, "  ")
    out.append("}\n")
    return "\n".join(out)


def write_mdl(model: SimulinkModel, path: str) -> None:
    """Write a model to a ``.mdl`` file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_mdl(model))


def _print_parameters(out: List[str], parameters: Dict[str, object], pad: str) -> None:
    """One ``Key Value`` line per scalar; callables and the like are skipped."""
    for key, value in sorted(parameters.items()):
        if isinstance(value, str):
            out.append(f"{pad}{key} {_quote(value)}")
        elif isinstance(value, bool):
            out.append(f'{pad}{key} "on"' if value else f'{pad}{key} "off"')
        elif isinstance(value, (int, float)):
            out.append(f"{pad}{key} {value!r}")


def _print_system(out: List[str], system: System, pad: str) -> None:
    inner = pad + "  "
    out.append(f"{pad}System {{")
    out.append(f"{inner}Name {_quote(system.name)}")
    for block in system.blocks:
        _print_block(out, block, inner)
    for line in system.lines:
        _print_line(out, line, inner)
    out.append(f"{pad}}}")


def _print_block(out: List[str], block: Block, pad: str) -> None:
    inner = pad + "  "
    out.append(f"{pad}Block {{")
    out.append(f"{inner}BlockType {_quote(block.block_type)}")
    out.append(f"{inner}Name {_quote(block.name)}")
    out.append(f"{inner}Ports [{block.num_inputs}, {block.num_outputs}]")
    _print_parameters(out, block.parameters, inner)
    if isinstance(block, SubSystem):
        _print_system(out, block.system, inner)
    out.append(f"{pad}}}")


def _print_line(out: List[str], line: Line, pad: str) -> None:
    inner = pad + "  "
    out.append(f"{pad}Line {{")
    out.append(f"{inner}SrcBlock {_quote(line.source.block.name)}")
    out.append(f"{inner}SrcPort {line.source.index}")
    if len(line.destinations) == 1:
        dest = line.destinations[0]
        out.append(f"{inner}DstBlock {_quote(dest.block.name)}")
        out.append(f"{inner}DstPort {dest.index}")
    else:
        for dest in line.destinations:
            out.append(f"{inner}Branch {{")
            out.append(f"{inner}  DstBlock {_quote(dest.block.name)}")
            out.append(f"{inner}  DstPort {dest.index}")
            out.append(f"{inner}}}")
    out.append(f"{pad}}}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _tokenize(text: str) -> Iterator[Tuple[str, str]]:
    """Yield ``(kind, value)`` tokens: WORD, STRING, LBRACE, RBRACE, VALUE."""
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "{":
            yield ("LBRACE", "{")
            i += 1
            continue
        if ch == "}":
            yield ("RBRACE", "}")
            i += 1
            continue
        if ch == '"':
            i += 1
            out = []
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n:
                    i += 1
                out.append(text[i])
                i += 1
            if i >= n:
                raise MdlError("unterminated string literal")
            i += 1
            yield ("STRING", "".join(out))
            continue
        if ch == "[":
            j = text.find("]", i)
            if j < 0:
                raise MdlError("unterminated list literal")
            yield ("LIST", text[i + 1 : j])
            i = j + 1
            continue
        j = i
        while j < n and text[j] not in ' \t\r\n{}"#[':
            j += 1
        yield ("WORD", text[i:j])
        i = j


class _Section:
    """A parsed MDL section: properties plus ordered child sections."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.properties: Dict[str, object] = {}
        self.children: List["_Section"] = []

    def child(self, name: str) -> Optional["_Section"]:
        for section in self.children:
            if section.name == name:
                return section
        return None

    def children_named(self, name: str) -> List["_Section"]:
        return [s for s in self.children if s.name == name]


def _parse_sections(text: str) -> _Section:
    tokens = list(_tokenize(text))
    root = _Section("<root>")
    stack = [root]
    i = 0
    while i < len(tokens):
        kind, value = tokens[i]
        if kind == "WORD":
            if i + 1 < len(tokens) and tokens[i + 1][0] == "LBRACE":
                section = _Section(value)
                stack[-1].children.append(section)
                stack.append(section)
                i += 2
                continue
            if i + 1 >= len(tokens):
                raise MdlError(f"dangling property name {value!r}")
            vkind, vvalue = tokens[i + 1]
            if vkind == "STRING":
                # Simulink convention: quoted on/off are booleans.
                if vvalue == "on":
                    stack[-1].properties[value] = True
                elif vvalue == "off":
                    stack[-1].properties[value] = False
                else:
                    stack[-1].properties[value] = vvalue
            elif vkind == "LIST":
                stack[-1].properties[value] = [
                    part.strip() for part in vvalue.split(",")
                ]
            elif vkind == "WORD":
                stack[-1].properties[value] = _parse_scalar(vvalue)
            else:
                raise MdlError(
                    f"unexpected token after property {value!r}: {vvalue!r}"
                )
            i += 2
            continue
        if kind == "RBRACE":
            if len(stack) == 1:
                raise MdlError("unbalanced closing brace")
            stack.pop()
            i += 1
            continue
        raise MdlError(f"unexpected token {value!r}")
    if len(stack) != 1:
        raise MdlError("unbalanced braces at end of input")
    return root


def _parse_scalar(word: str) -> object:
    try:
        return int(word)
    except ValueError:
        pass
    try:
        return float(word)
    except ValueError:
        pass
    return word


def from_mdl(text: str) -> SimulinkModel:
    """Parse MDL text into a model.

    Subsystems whose ``CaamRole`` parameter is ``cpu``/``thread`` are
    reconstructed as :class:`CpuSubsystem`/:class:`ThreadSubsystem`, and a
    model containing CPU subsystems is returned as a :class:`CaamModel`.
    """
    root = _parse_sections(text)
    model_section = root.child("Model")
    if model_section is None:
        raise MdlError("no Model section found")
    name = str(model_section.properties.get("Name", "model"))
    system_section = model_section.child("System")
    if system_section is None:
        raise MdlError("Model has no System section")
    has_cpus = any(
        block.properties.get(ROLE_PARAM) == CPU_ROLE
        for block in system_section.children_named("Block")
    )
    model: SimulinkModel = CaamModel(name) if has_cpus else SimulinkModel(name)
    for key, value in model_section.properties.items():
        if key != "Name":
            model.parameters[key] = value
    _fill_system(model.root, system_section)
    return model


def read_mdl(path: str) -> SimulinkModel:
    """Read a model from a ``.mdl`` file."""
    with open(path, "r", encoding="utf-8") as handle:
        return from_mdl(handle.read())


def _fill_system(system: System, section: _Section) -> None:
    for block_section in section.children_named("Block"):
        system.add(_build_block(block_section))
    for line_section in section.children_named("Line"):
        _build_line(system, line_section)


def _build_block(section: _Section) -> Block:
    block_type = str(section.properties.get("BlockType", ""))
    name = str(section.properties.get("Name", ""))
    ports = section.properties.get("Ports", ["1", "1"])
    try:
        num_in, num_out = (int(str(p)) for p in ports)
    except (ValueError, TypeError):
        raise MdlError(f"block {name!r} has malformed Ports {ports!r}") from None
    parameters = {
        key: value
        for key, value in section.properties.items()
        if key not in ("BlockType", "Name", "Ports")
    }
    if block_type == "SubSystem":
        role = parameters.get(ROLE_PARAM)
        if role == CPU_ROLE:
            sub: SubSystem = CpuSubsystem(name)
        elif role == THREAD_ROLE:
            sub = ThreadSubsystem(name)
        else:
            sub = SubSystem(name)
        sub.parameters.update(parameters)
        inner = section.child("System")
        if inner is not None:
            _fill_system(sub.system, inner)
        sub.sync_ports()
        return sub
    block = Block(name, block_type, inputs=num_in, outputs=num_out,
                  parameters=parameters)
    return block


def _build_line(system: System, section: _Section) -> None:
    src_name = str(section.properties.get("SrcBlock", ""))
    src_port = int(section.properties.get("SrcPort", 1))
    source = system.block(src_name).output(src_port)
    destinations: List[Port] = []
    if "DstBlock" in section.properties:
        dst = system.block(str(section.properties["DstBlock"]))
        destinations.append(dst.input(int(section.properties.get("DstPort", 1))))
    for branch in section.children_named("Branch"):
        dst = system.block(str(branch.properties["DstBlock"]))
        destinations.append(dst.input(int(branch.properties.get("DstPort", 1))))
    if not destinations:
        raise MdlError(f"line from {src_name!r} has no destination")
    system.connect(source, *destinations)
