"""Property: ``Hypervisor.cell_of_cpu`` answers what a scan of the cells does.

The hypervisor keeps an index from CPU id to owning cell instead of scanning
``cells`` on every entry. Over random sequences of the operations that move
CPUs between cells, or leave them where they are, the index must give the
scan's answer: the first cell in ``cells`` order that lists the CPU, or
``None``.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import HypervisorError
from repro.hw.board import BananaPiBoard
from repro.hypervisor.config import bananapi_system_config, freertos_cell_config
from repro.hypervisor.core import Hypervisor
from repro.hypervisor.hypercalls import Hypercall

OPERATIONS = ("enable", "create", "start", "destroy", "park", "panic",
              "snapshot", "restore")


def scan(hv: Hypervisor, cpu_id: int):
    for cell in hv.cells.values():
        if cpu_id in cell.cpus:
            return cell
    return None


def non_root_ids(hv: Hypervisor):
    return [cell.cell_id for cell in hv.cells.values() if not cell.is_root]


def apply(hv: Hypervisor, board: BananaPiBoard, snapshots: list,
          operation: str, cpu_id: int) -> None:
    """Run one operation, issuing hypercalls from ``cpu_id``."""
    if operation == "enable":
        try:
            hv.enable(bananapi_system_config())
        except HypervisorError:
            pass                                 # already enabled
    elif operation == "create":
        address = hv.stage_config(freertos_cell_config())
        hv.issue_hypercall(cpu_id, int(Hypercall.CELL_CREATE), address)
    elif operation in ("start", "destroy"):
        call = (Hypercall.CELL_START if operation == "start"
                else Hypercall.CELL_DESTROY)
        for cell_id in non_root_ids(hv):
            hv.issue_hypercall(cpu_id, int(call), cell_id)
    elif operation == "park":
        hv.cpu_park(cpu_id, "parked by the property")
    elif operation == "panic":
        if hv.cells:
            hv.panic("panic raised by the property", cpu_id=cpu_id)
    elif operation == "snapshot":
        snapshots.append((board.snapshot_state(), hv.snapshot_state()))
    elif snapshots:
        board_state, hv_state = snapshots[-1]
        board.restore_state(board_state)
        hv.restore_state(hv_state)


@settings(max_examples=150, deadline=None)
@given(enable_first=st.booleans(),
       steps=st.lists(st.tuples(st.sampled_from(OPERATIONS),
                                st.integers(min_value=0, max_value=1)),
                      max_size=14))
def test_cell_of_cpu_equals_a_scan(enable_first, steps):
    board = BananaPiBoard()
    board.power_on()
    hv = Hypervisor(board)
    snapshots: list = []
    cpu_ids = range(-1, board.num_cpus + 1)
    if enable_first:
        steps = [("enable", 0)] + steps
    for cpu_id in cpu_ids:
        assert hv.cell_of_cpu(cpu_id) is None
    for operation, cpu_id in steps:
        apply(hv, board, snapshots, operation, cpu_id)
        for probe in cpu_ids:
            assert hv.cell_of_cpu(probe) is scan(hv, probe), (operation, probe)


def test_the_index_follows_a_create_destroy_and_restore():
    board = BananaPiBoard()
    board.power_on()
    hv = Hypervisor(board)
    root = hv.enable(bananapi_system_config())
    snapshots = [(board.snapshot_state(), hv.snapshot_state())]
    address = hv.stage_config(freertos_cell_config())
    created = hv.issue_hypercall(0, int(Hypercall.CELL_CREATE), address)
    inmate = hv.cell_by_id(created.code)
    assert [hv.cell_of_cpu(cpu) for cpu in (0, 1)] == [root, inmate]
    apply(hv, board, snapshots, "restore", 0)
    assert [hv.cell_of_cpu(cpu) for cpu in (0, 1)] == [root, root]
    address = hv.stage_config(freertos_cell_config())   # restore dropped it
    created = hv.issue_hypercall(0, int(Hypercall.CELL_CREATE), address)
    assert hv.cell_of_cpu(1) is hv.cell_by_id(created.code)
    hv.issue_hypercall(0, int(Hypercall.CELL_DESTROY), created.code)
    assert hv.cell_of_cpu(1) is root


def test_a_cpu_two_cells_list_belongs_to_the_first():
    # No hypercall leaves two cells listing one CPU (cell destroy does,
    # between handing the CPU back and dropping the cell), but the index
    # answers as the scan would: the first cell in ``cells`` order.
    board = BananaPiBoard()
    board.power_on()
    hv = Hypervisor(board)
    root = hv.enable(bananapi_system_config())
    address = hv.stage_config(freertos_cell_config())
    hv.issue_hypercall(0, int(Hypercall.CELL_CREATE), address)
    root.cpus.add(1)
    hv._index_cpu_owners()
    assert hv.cell_of_cpu(1) is root is scan(hv, 1)
