"""Integration: the Equation-1 gate is paid once per protocol per process.

The standing benchmark's ``verify_oracle`` and ``static_all`` children run
their commands back to back through ``repro.cli.main`` in one interpreter
(``perf/child.py``).  Every command refines its protocol, and ``lint``
discharges the certificate a second time in its ``simulation`` pass; the
in-process memo must leave exactly one closure sweep per distinct
protocol.  Sweeps are counted on the adapter they all go through, not
inferred from wall-clock.
"""

import pytest

from repro.cli import main
from tests.conftest import perf_module


def workload_argvs(name):
    """The argv lists of one ``perf/workloads.py`` workload, full size."""
    return [command.resolve(sim_seed=0, spill_dir="")
            for command in perf_module("workloads").WORKLOADS[name].commands]


@pytest.mark.parametrize("workload, protocols", [
    # verify msi; verify invalidate --progress; soundness invalidate
    ("verify_oracle", 2),
    # lint invalidate (gate + simulation pass); flows and paramverify
    # work on the rendezvous AST and never refine
    ("static_all", 1),
])
def test_gate_once_per_process(workload, protocols, certificate_sweeps,
                               capsys):
    argvs = workload_argvs(workload)
    assert len(argvs) == 3
    for argv in argvs:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert certificate_sweeps == [protocols]
