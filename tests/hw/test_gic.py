"""Tests for the GIC model."""

import pytest

from repro.errors import InterruptError
from repro.hw.gic import Gic, SPURIOUS_IRQ


@pytest.fixture
def gic() -> Gic:
    gic = Gic(num_cpus=2)
    gic.enable_irq(27, priority=0x20)              # per-CPU timer PPI
    gic.enable_irq(33, priority=0xA0, targets={0})  # UART SPI to CPU 0
    gic.enable_irq(155, priority=0x60, targets={1})  # ivshmem doorbell to CPU 1
    return gic


def test_gic_requires_at_least_one_cpu():
    with pytest.raises(ValueError):
        Gic(0)


def test_disabled_irq_is_not_accepted(gic: Gic):
    gic.disable_irq(33)
    assert not gic.raise_irq(33)
    assert not gic.has_pending(0)


def test_unknown_irq_is_not_accepted(gic: Gic):
    assert not gic.raise_irq(200)


def test_out_of_range_irq_is_rejected(gic: Gic):
    with pytest.raises(InterruptError):
        gic.raise_irq(5000)


def test_spi_is_routed_to_its_target_cpu(gic: Gic):
    assert gic.raise_irq(33)
    assert gic.has_pending(0)
    assert not gic.has_pending(1)


def test_ppi_with_explicit_cpu_goes_to_that_cpu(gic: Gic):
    gic.raise_irq(27, cpu_id=1)
    assert gic.pending_for(1) == (27,)
    assert not gic.has_pending(0)


def test_acknowledge_returns_highest_priority_first(gic: Gic):
    gic.raise_irq(33)
    gic.raise_irq(27, cpu_id=0)
    interface = gic.cpu_interfaces[0]
    first = interface.acknowledge()
    interface.end_of_interrupt(first)
    second = interface.acknowledge()
    interface.end_of_interrupt(second)
    assert (first, second) == (27, 33)   # timer has numerically lower priority


def test_acknowledge_with_nothing_pending_is_spurious(gic: Gic):
    assert gic.cpu_interfaces[0].acknowledge() == SPURIOUS_IRQ


def test_eoi_must_match_active_interrupt(gic: Gic):
    gic.raise_irq(33)
    interface = gic.cpu_interfaces[0]
    irq = interface.acknowledge()
    assert interface.active == irq
    with pytest.raises(InterruptError):
        interface.end_of_interrupt(irq + 1)
    assert interface.active == irq           # a mismatch completes nothing
    interface.end_of_interrupt(irq)
    assert interface.active is None
    with pytest.raises(InterruptError):      # nothing left to complete
        interface.end_of_interrupt(irq)


def test_duplicate_pending_interrupt_is_collapsed(gic: Gic):
    gic.raise_irq(33)
    gic.raise_irq(33)
    assert gic.pending_for(0) == (33,)


def test_priority_mask_blocks_low_priority_interrupts(gic: Gic):
    gic.raise_irq(33)    # priority 0xA0
    interface = gic.cpu_interfaces[0]
    interface.priority_mask = 0x50
    assert interface.acknowledge() == SPURIOUS_IRQ
    interface.priority_mask = 0xFF
    assert interface.acknowledge() == 33


def test_disabled_cpu_interface_returns_spurious(gic: Gic):
    gic.raise_irq(33)
    interface = gic.cpu_interfaces[0]
    interface.enabled = False
    assert interface.acknowledge() == SPURIOUS_IRQ


def test_sgi_between_cores(gic: Gic):
    gic.send_sgi(1, source_cpu=0, target_cpu=1)
    assert 1 in gic.pending_for(1)


def test_sgi_id_must_be_below_16(gic: Gic):
    with pytest.raises(InterruptError):
        gic.send_sgi(20, source_cpu=0, target_cpu=1)


def test_sgi_target_must_exist(gic: Gic):
    with pytest.raises(InterruptError):
        gic.send_sgi(1, source_cpu=0, target_cpu=7)


def test_retarget_irq_changes_delivery(gic: Gic):
    gic.retarget_irq(33, {1})
    gic.raise_irq(33)
    assert gic.has_pending(1)
    assert not gic.has_pending(0)


def test_retarget_to_invalid_cpu_is_rejected(gic: Gic):
    with pytest.raises(InterruptError):
        gic.retarget_irq(33, {9})


def test_clear_pending_per_cpu_and_global(gic: Gic):
    gic.raise_irq(33)
    gic.raise_irq(155)
    gic.clear_pending(0)
    assert not gic.has_pending(0)
    assert gic.has_pending(1)
    gic.clear_pending()
    assert not gic.has_pending(1)
