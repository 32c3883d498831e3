#!/usr/bin/env python3
"""Heterogeneous code generation: one UML model, every back-end (Fig. 1).

The paper's headline claim: "this approach allows designers to employ UML
to model the whole system and reuse this model to generate code using
different strategies and targeting different platforms."  This example
takes the crane UML model and fans it out to

- the Simulink back-end (CAAM ``.mdl`` + intermediate E-core XML),
- the multithreaded Java back-end,
- the MPSoC multithreaded C (one POSIX thread per CPU, printed from the
  same verified static schedule as the Java),

writing every artifact into an output directory.  The paper's
extensibility target, a Kahn process network, is the threaded program
itself: every channel read blocks on a bounded FIFO.

Run:  python examples/heterogeneous_codegen.py [output_dir]
"""

from __future__ import annotations

import os
import sys
import tempfile

from repro.apps import crane
from repro.backends import DesignFlow, JavaBackend, SimulinkBackend
from repro.codegen import build_schedule
from repro.codegen.cemit import generate_threaded_c


def main() -> None:
    output_dir = (
        sys.argv[1]
        if len(sys.argv) > 1
        else os.path.join(tempfile.gettempdir(), "repro_codegen")
    )
    os.makedirs(output_dir, exist_ok=True)

    model = crane.build_model()
    simulink = SimulinkBackend(behaviors=crane.behaviors())
    flow = DesignFlow([simulink, JavaBackend()])

    print(f"generating from UML model {model.name!r} into {output_dir}/")
    artifacts = flow.generate_all(model)
    # Add the downstream MPSoC C sources generated from the CAAM.
    assert simulink.last_result is not None
    schedule = build_schedule(simulink.last_result.caam)
    artifacts["mpsoc-c"] = generate_threaded_c(schedule)

    total = 0
    for backend, files in artifacts.items():
        backend_dir = os.path.join(output_dir, backend)
        os.makedirs(backend_dir, exist_ok=True)
        for filename, content in files.items():
            path = os.path.join(backend_dir, filename)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
            print(f"  [{backend:>9}] {filename:<24} {len(content):>6} bytes")
            total += 1
    print(f"\n{total} artifacts from one UML model, three strategies.")
    for cpu, pes in schedule.partition().items():
        print(f"  {cpu} thread runs {' -> '.join(pes)} every period")


if __name__ == "__main__":
    main()
