#!/usr/bin/env python3
"""Quickstart: boot the paper's testbed and watch it run fault-free.

Boots the simulated Banana Pi, enables the Jailhouse-like hypervisor, creates
and starts the FreeRTOS non-root cell through the ``jailhouse`` CLI (exactly
the procedure the paper's testbed uses), runs the mixed-criticality workload
for a few seconds, and prints the serial console plus a board/cell summary.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.sut import JailhouseSUT, SutConfig


def main() -> None:
    sut = JailhouseSUT(SutConfig(seed=2022))

    print("=== booting the board and enabling the hypervisor ===")
    sut.setup()
    print(sut.board.describe())
    print()

    print("=== creating, loading and starting the FreeRTOS cell ===")
    management = sut.perform_cell_lifecycle()
    print(f"cell create succeeded: {management.create_succeeded}")
    print(f"cell start  succeeded: {management.start_succeeded}")
    print()
    print(sut.hypervisor.cell_list())
    print()

    print("=== running the workload for 10 simulated seconds ===")
    sut.run(10.0)

    print()
    print("=== serial console (last 25 lines) ===")
    for record in sut.board.uart.records[-25:]:
        print(f"[{record.timestamp:7.3f}] {record.source:>15}: {record.text}")

    print()
    print("=== summary ===")
    evidence = sut.evidence(0.0, sut.now)
    for cell_name, report in evidence.availability.items():
        print(f"  {report.describe()}")
    freertos = sut.freertos
    print(f"  FreeRTOS tasks: {len(freertos.tasks)}, "
          f"context switches: {freertos.context_switches}, "
          f"LED blinks: {freertos.task_by_name('blink').run_count}")
    print(f"  hypervisor entries: "
          f"{ {name: stats.calls for name, stats in sut.hypervisor.handlers.stats.items()} }")
    print(f"  outcome of this golden run: no faults injected, "
          f"panicked={evidence.observation.panicked}")


if __name__ == "__main__":
    main()
