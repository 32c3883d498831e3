"""KPN back-end: UML → Kahn Process Network.

The paper notes its transformation approach "can be extended to support
mappings to other languages, such as ... KPN (Kahn Process Network)"; this
module implements that extension.  Threads become KPN processes, inferred
channels become unbounded FIFOs, and ``<<IO>>`` accesses become network
input/output ports.  A small round-based executor demonstrates the network
is live (every process fires) once behaviours are attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.mapping import map_model
from ..core.flow import resolve_plan
from ..uml.deployment import DeploymentPlan
from ..uml.model import Model


class KpnError(Exception):
    """Raised on malformed networks."""


@dataclass
class KpnChannel:
    """An unbounded FIFO between two processes (or a network port)."""

    name: str
    producer: str  # process name, or "" for a network input
    consumer: str  # process name, or "" for a network output
    tokens: List[float] = field(default_factory=list)

    @property
    def is_input(self) -> bool:
        return self.producer == ""

    @property
    def is_output(self) -> bool:
        return self.consumer == ""


@dataclass
class KpnProcess:
    """A KPN process: reads its input channels, writes its outputs.

    ``behavior(inputs: dict) -> dict`` maps one token per input channel to
    one token per output channel (a blocking-read Kahn step).  Without a
    behaviour the process copies the sum of its inputs to every output.
    """

    name: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    behavior: Optional[Callable[[Dict[str, float]], Dict[str, float]]] = None


class KpnNetwork:
    """A Kahn Process Network with a deterministic round-based executor."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.processes: Dict[str, KpnProcess] = {}
        self.channels: Dict[str, KpnChannel] = {}

    def add_process(self, process: KpnProcess) -> KpnProcess:
        """Register a process; rejects duplicate names."""
        if process.name in self.processes:
            raise KpnError(f"duplicate process {process.name!r}")
        self.processes[process.name] = process
        return process

    def add_channel(self, channel: KpnChannel) -> KpnChannel:
        """Register a channel and link it to its endpoint processes."""
        if channel.name in self.channels:
            raise KpnError(f"duplicate channel {channel.name!r}")
        self.channels[channel.name] = channel
        if channel.producer:
            self.processes[channel.producer].outputs.append(channel.name)
        if channel.consumer:
            self.processes[channel.consumer].inputs.append(channel.name)
        return channel

    def network_inputs(self) -> List[KpnChannel]:
        """Channels fed by the environment (no producer process)."""
        return [c for c in self.channels.values() if c.is_input]

    def network_outputs(self) -> List[KpnChannel]:
        """Channels drained by the environment (no consumer process)."""
        return [c for c in self.channels.values() if c.is_output]

    # -- execution --------------------------------------------------------------
    def fireable(self, process: KpnProcess) -> bool:
        """A process can fire when every input FIFO holds a token."""
        return all(self.channels[name].tokens for name in process.inputs)

    def fire(self, process: KpnProcess) -> None:
        """Consume one token per input, run the behaviour, emit outputs."""
        inputs = {
            name: self.channels[name].tokens.pop(0) for name in process.inputs
        }
        if process.behavior is not None:
            outputs = process.behavior(inputs)
        else:
            value = float(sum(inputs.values()))
            outputs = {name: value for name in process.outputs}
        for name in process.outputs:
            self.channels[name].tokens.append(float(outputs.get(name, 0.0)))

    def run(
        self,
        rounds: int,
        inputs: Optional[Dict[str, Sequence[float]]] = None,
    ) -> Dict[str, List[float]]:
        """Execute ``rounds`` rounds; returns tokens drained at outputs.

        Each round feeds one token into every network input (0.0 when the
        stimulus is exhausted), then fires fireable processes to quiescence
        in deterministic name order.
        """
        inputs = dict(inputs or {})
        collected: Dict[str, List[float]] = {
            c.name: [] for c in self.network_outputs()
        }
        for round_index in range(rounds):
            for channel in self.network_inputs():
                stimulus = inputs.get(channel.name, ())
                value = (
                    float(stimulus[round_index])
                    if round_index < len(stimulus)
                    else 0.0
                )
                channel.tokens.append(value)
            progress = True
            guard = 0
            while progress:
                progress = False
                guard += 1
                if guard > 10000:
                    raise KpnError("runaway firing; network diverges")
                for name in sorted(self.processes):
                    process = self.processes[name]
                    if process.inputs and self.fireable(process):
                        self.fire(process)
                        progress = True
            # Source processes (no inputs) fire exactly once per round.
            for name in sorted(self.processes):
                process = self.processes[name]
                if not process.inputs:
                    self.fire(process)
            for channel in self.network_outputs():
                while channel.tokens:
                    collected[channel.name].append(channel.tokens.pop(0))
        return collected

    def dot(self) -> str:
        """GraphViz rendering of the network topology."""
        lines = [f"digraph {self.name} {{"]
        for process in self.processes.values():
            lines.append(f'  "{process.name}" [shape=box];')
        for channel in self.channels.values():
            producer = channel.producer or "ENV_IN"
            consumer = channel.consumer or "ENV_OUT"
            lines.append(
                f'  "{producer}" -> "{consumer}" [label="{channel.name}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def generate_c(self) -> str:
        """Generate C sources for the network.

        Each process becomes a function performing Kahn blocking reads on
        its input channels, a behaviour call, and writes on its outputs;
        ``main`` declares the channels and registers the processes with a
        small runtime (``kpn_runtime.h``: ``kpn_channel``, ``kpn_read``,
        ``kpn_write``, ``kpn_register``, ``kpn_run``).
        """
        processes = [self.processes[name] for name in sorted(self.processes)]
        lines = [
            "/* Generated by repro.backends.kpn_backend -- do not edit. */",
            '#include "kpn_runtime.h"',
            "",
        ]
        lines += [
            f"static kpn_channel ch_{name};"
            for name in sorted(channel.name for channel in self.channels.values())
        ]
        lines.append("")
        for process in processes:
            lines.append(f"static void process_{process.name}(void) {{")
            lines += [
                f"    double {name} = kpn_read(&ch_{name});"
                for name in process.inputs
            ]
            if process.outputs:
                lines.append(f"    double out = {_behavior_expr(process)};")
                lines += [
                    f"    kpn_write(&ch_{name}, out);" for name in process.outputs
                ]
            lines += ["}", ""]
        lines.append("int main(void) {")
        lines += [
            f'    kpn_register(process_{process.name}, "{process.name}");'
            for process in processes
        ]
        lines += ["    kpn_run();", "    return 0;", "}"]
        return "\n".join(lines) + "\n"


def _behavior_expr(process: KpnProcess) -> str:
    """The C expression a process writes to every output channel."""
    if not process.inputs:
        return f"{process.name}_source()"
    if process.behavior is not None:
        return f"{process.name}_step({', '.join(process.inputs)})"
    return " + ".join(process.inputs)


class KpnBackend:
    """Generates a KPN from the UML model (plus the ``.dot`` artifact)."""

    name = "kpn"

    def __init__(self) -> None:
        self.last_network: Optional[KpnNetwork] = None

    def build_network(
        self, model: Model, plan: Optional[DeploymentPlan] = None
    ) -> KpnNetwork:
        """Derive the KPN from the UML model's threads and channels."""
        resolved_plan, _ = resolve_plan(model, plan)
        mapping = map_model(model, resolved_plan)
        network = KpnNetwork(model.name or "kpn")
        for thread in resolved_plan.threads:
            network.add_process(KpnProcess(thread))
        for request in mapping.unique_channel_requests():
            network.add_channel(
                KpnChannel(
                    f"{request.producer}_{request.consumer}_{request.channel}",
                    request.producer,
                    request.consumer,
                )
            )
        for request in mapping.io_requests:
            if request.direction == "in":
                network.add_channel(
                    KpnChannel(
                        f"in_{request.thread}_{request.channel}",
                        "",
                        request.thread,
                    )
                )
            else:
                network.add_channel(
                    KpnChannel(
                        f"out_{request.thread}_{request.channel}",
                        request.thread,
                        "",
                    )
                )
        self.last_network = network
        return network

    def generate(
        self, model: Model, plan: Optional[DeploymentPlan] = None
    ) -> Dict[str, str]:
        """Return the GraphViz topology and the generated C sources."""
        network = self.build_network(model, plan)
        return {
            f"{network.name}.kpn.dot": network.dot(),
            f"{network.name}_kpn.c": network.generate_c(),
        }
