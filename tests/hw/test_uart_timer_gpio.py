"""Tests for the UART, per-CPU timer, and GPIO/LED models."""

import pytest

from repro.errors import DeviceError
from repro.hw.clock import SimulationClock
from repro.hw.gic import SPURIOUS_IRQ, Gic
from repro.hw.gpio import GpioController, Led
from repro.hw.timer import GenericTimer, VIRTUAL_TIMER_PPI
from repro.hw.uart import Uart


class TestUart:
    def test_write_line_records_source_and_text(self):
        uart = Uart()
        uart.write_line("FreeRTOS", "hello")
        assert uart.lines("FreeRTOS") == ["hello"]
        assert uart.output_count("FreeRTOS") == 1
        assert uart.output_count() == 1

    def test_lines_filter_by_source(self):
        uart = Uart()
        uart.write_line("a", "1")
        uart.write_line("b", "2")
        assert uart.lines("a") == ["1"]
        assert uart.lines() == ["1", "2"]
        assert uart.sources() == ("a", "b")

    def test_char_interface_flushes_on_newline(self):
        uart = Uart()
        for char in "hi\n":
            uart.write_char("cell", char)
        assert uart.lines("cell") == ["hi"]

    def test_partial_lines_are_kept_per_source(self):
        uart = Uart()
        uart.write_char("a", "x")
        uart.write_char("b", "y")
        uart.write_char("a", "\n")
        assert uart.lines("a") == ["x"]
        assert uart.lines("b") == []

    def test_records_carry_timestamps_from_the_clock(self):
        clock = SimulationClock()
        uart = Uart(clock=lambda: clock.now)
        uart.write_line("a", "t0")
        clock.advance(2.0)
        uart.write_line("a", "t2")
        times = [record.timestamp for record in uart.records]
        assert times == [pytest.approx(0.0), pytest.approx(2.0)]

    def test_records_between_is_half_open(self):
        clock = SimulationClock()
        uart = Uart(clock=lambda: clock.now)
        uart.write_line("a", "first")
        clock.advance(1.0)
        uart.write_line("a", "second")
        records = uart.records_between(0.0, 1.0, "a")
        assert [record.text for record in records] == ["first"]

    def test_silent_since_detects_missing_output(self):
        clock = SimulationClock()
        uart = Uart(clock=lambda: clock.now)
        uart.write_line("cell", "alive")
        clock.advance(5.0)
        assert uart.silent_since(1.0, "cell")
        assert not uart.silent_since(0.0, "cell")
        assert uart.silent_since(0.0, "other")

    def test_clear_drops_history(self):
        uart = Uart()
        uart.write_line("a", "x")
        uart.clear()
        assert uart.output_count() == 0
        assert uart.last_output_time() is None

    def test_clear_drops_pending_partial_lines(self):
        uart = Uart()
        uart.write_char("cell", "x")
        uart.clear()
        uart.write_char("cell", "\n")
        assert uart.lines("cell") == [""]

    def test_a_bare_newline_writes_an_empty_line(self):
        uart = Uart()
        uart.write_char("hypervisor", "\n")
        assert uart.lines("hypervisor") == [""]
        assert uart.output_count("hypervisor") == 1

    def test_last_output_time_is_per_source(self):
        clock = SimulationClock()
        uart = Uart(clock=lambda: clock.now)
        uart.write_line("a", "first")
        clock.advance(2.0)
        uart.write_line("b", "second")
        assert uart.last_output_time("a") == pytest.approx(0.0)
        assert uart.last_output_time("b") == pytest.approx(2.0)
        assert uart.last_output_time() == pytest.approx(2.0)
        assert uart.last_output_time("c") is None

    def test_snapshot_restore_rebuilds_the_indexes(self):
        clock = SimulationClock()
        uart = Uart(clock=lambda: clock.now)
        uart.write_line("a", "a0")
        clock.advance(1.0)
        uart.write_line("b", "b1")
        uart.write_char("a", "p")
        state = uart.snapshot_state()
        clock.advance(1.0)
        uart.write_line("a", "a2")
        uart.write_char("b", "q")

        uart.restore_state(state)
        assert uart.lines() == ["a0", "b1"]
        assert uart.sources() == ("a", "b")
        assert [r.text for r in uart.records_between(0.5, 5.0)] == ["b1"]
        assert [r.text for r in uart.records_between(0.0, 5.0, "a")] == ["a0"]
        assert uart.last_output_time("a") == pytest.approx(0.0)
        # The pending partial lines are the snapshot's: "p" for a, none for b.
        uart.write_char("a", "\n")
        uart.write_char("b", "\n")
        assert uart.lines("a") == ["a0", "p"]
        assert uart.lines("b") == ["b1", ""]

    def test_snapshot_is_immune_to_later_writes(self):
        uart = Uart()
        uart.write_line("a", "kept")
        uart.write_char("a", "x")
        state = uart.snapshot_state()
        uart.write_line("a", "later")
        uart.write_char("a", "y")
        assert [record.text for record in state["records"]] == ["kept"]
        assert state["partial"] == {"a": "x"}

    def test_dump_renders_log_file_format(self):
        uart = Uart()
        uart.write_line("hypervisor", "Initializing")
        dump = uart.dump()
        assert "hypervisor: Initializing" in dump
        assert uart.dump(sources=["other"]) == ""


def take_ppis(clock, gic, cpu_id, quanta, quantum):
    """Advance ``clock`` ``quanta`` times by ``quantum``, taking the pending
    timer PPI from the GIC after each, as the CPU's IRQ entry does; return
    how many were taken."""
    interface = gic.cpu_interfaces[cpu_id]
    taken = 0
    for _ in range(quanta):
        clock.advance(quantum)
        irq = interface.acknowledge()
        if irq != SPURIOUS_IRQ:
            assert irq == VIRTUAL_TIMER_PPI
            interface.end_of_interrupt(irq)
            taken += 1
    return taken


class TestGenericTimer:
    def test_timer_raises_its_ppi_on_each_period(self):
        clock = SimulationClock()
        gic = Gic(2)
        gic.enable_irq(VIRTUAL_TIMER_PPI)
        timer = GenericTimer(1, clock, gic)
        timer.start(0.01)
        assert take_ppis(clock, gic, 1, 5, 0.01) == 5
        assert not gic.has_pending(0)        # a private interrupt of CPU 1
        clock.advance(0.05)                  # untaken ticks collapse into one
        assert gic.pending_for(1) == (VIRTUAL_TIMER_PPI,)

    def test_timer_rejects_non_positive_period(self):
        timer = GenericTimer(0, SimulationClock(), Gic(1))
        with pytest.raises(DeviceError):
            timer.start(0.0)

    def test_stop_prevents_further_ticks(self):
        clock = SimulationClock()
        gic = Gic(1)
        gic.enable_irq(VIRTUAL_TIMER_PPI)
        timer = GenericTimer(0, clock, gic)
        timer.start(0.01)
        assert take_ppis(clock, gic, 0, 2, 0.01) == 2
        timer.stop()
        assert take_ppis(clock, gic, 0, 100, 0.01) == 0
        assert not timer.running
        assert timer.period is None

    def test_restart_replaces_the_period(self):
        clock = SimulationClock()
        gic = Gic(1)
        gic.enable_irq(VIRTUAL_TIMER_PPI)
        timer = GenericTimer(0, clock, gic)
        timer.start(0.01)
        timer.start(0.5)
        # Ticks at 0.5 s and 1.0 s only, taken within 1.1 s.
        assert take_ppis(clock, gic, 0, 110, 0.01) == 2


class TestGpioAndLed:
    def test_controller_needs_pins(self):
        with pytest.raises(DeviceError):
            GpioController(0)

    def test_out_of_range_pin_is_rejected(self):
        gpio = GpioController(4)
        with pytest.raises(DeviceError):
            gpio.set_level(9, True)

    @pytest.mark.parametrize("pin", [-1, 4])
    def test_every_pin_access_checks_the_range(self, pin):
        gpio = GpioController(4)
        with pytest.raises(DeviceError):
            gpio.get_level(pin)
        with pytest.raises(DeviceError):
            gpio.toggle(pin)
        with pytest.raises(DeviceError):
            gpio.set_level(pin, False)

    def test_set_level_drives_the_pin_to_the_given_level(self):
        gpio = GpioController(4)
        gpio.set_level(2, True)
        gpio.set_level(2, True)
        assert gpio.get_level(2) is True
        gpio.set_level(2, False)
        gpio.set_level(2, False)
        assert gpio.get_level(2) is False

    def test_snapshot_restore_round_trip_of_levels(self):
        gpio = GpioController(4)
        gpio.set_level(1, True)
        state = gpio.snapshot_state()
        gpio.toggle(1)
        gpio.toggle(3)
        assert state["levels"][1] is True and state["levels"][3] is False
        gpio.restore_state(state)
        assert [gpio.get_level(pin) for pin in range(4)] == [False, True, False, False]

    def test_toggle_inverts_level(self):
        gpio = GpioController(4)
        assert gpio.toggle(1) is True
        assert gpio.toggle(1) is False
        assert gpio.get_level(1) is False

    def test_led_drives_its_pin(self):
        gpio = GpioController(32)
        led = Led(gpio, pin=24)
        assert led.lit is False
        led.on()
        assert led.lit is True and gpio.get_level(24) is True
        # Only the LED's own pin moves.
        assert [pin for pin in range(32) if gpio.get_level(pin)] == [24]
        led.off()
        assert led.lit is False and gpio.get_level(24) is False
        assert led.toggle() is True
        assert led.lit is True and gpio.get_level(24) is True
        assert led.toggle() is False
        assert led.lit is False and gpio.get_level(24) is False
