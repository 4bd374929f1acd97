"""Profile collection: the two-pass flow of Figure 1.

"The first compilation pass generates the regular binary.  In the second
pass, we use the profiling information collected from running the original
binary to enhance the binary for SSP."

One profiling run is made: a timing run on the baseline in-order model
(``chk.c`` disabled).  It yields the cache profile and the baseline cycle
count, the main thread's exact per-instruction execution counts and the
dynamic call graph of indirect calls, and the digest of the run's final
main-thread state and heap, against which the differential verify checks
the adapted binary.

The run needs a freshly initialised heap (programs mutate their data),
which is why the API takes a ``heap_factory``.
"""

from __future__ import annotations

from typing import Callable

from ..codegen.verify import outcome_digest
from ..isa.memory import Heap
from ..isa.program import Program
from ..sim.config import MachineConfig, inorder_config
from ..sim.inorder import InOrderSimulator
from .profile import ProgramProfile


def collect_profile(program: Program,
                    heap_factory: Callable[[], Heap],
                    config: MachineConfig = None) -> ProgramProfile:
    """Profile ``program`` and return the tool's input feedback."""
    config = config or inorder_config()
    if not program.finalized:
        program.finalize()

    sim = InOrderSimulator(program, heap_factory(), config, spawning=False)
    stats = sim.run()

    return ProgramProfile(
        program=program,
        load_stats=dict(sim.memory.load_stats),
        exec_counts=sim.exec_counts(),
        indirect_targets=sim.indirect_targets,
        baseline_cycles=stats.cycles,
        l1_latency=config.l1.latency,
        reference_digest=outcome_digest(sim.main_state, sim.heap),
    )
