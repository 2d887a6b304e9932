"""GPIO controller and LED model.

The paper's FreeRTOS workload includes "a task to blink an onboard led". The
model keeps each pin's level and nothing else: the blink task toggles the
LED's pin on each release, and the non-root cell's liveness is judged from
its UART output.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import DeviceError


class GpioController:
    """Bank of GPIO pins."""

    def __init__(self, num_pins: int = 32) -> None:
        if num_pins <= 0:
            raise DeviceError("GPIO controller needs at least one pin")
        self.num_pins = num_pins
        self._levels: Dict[int, bool] = {pin: False for pin in range(num_pins)}

    def _check_pin(self, pin: int) -> None:
        if not 0 <= pin < self.num_pins:
            raise DeviceError(f"pin {pin} out of range [0, {self.num_pins})")

    def set_level(self, pin: int, level: bool) -> None:
        """Drive a pin high or low."""
        self._check_pin(pin)
        self._levels[pin] = level

    def toggle(self, pin: int) -> bool:
        """Invert a pin and return its new level."""
        self._check_pin(pin)
        level = self._levels[pin] = not self._levels[pin]
        return level

    def get_level(self, pin: int) -> bool:
        self._check_pin(pin)
        return self._levels[pin]

    # -- snapshot / restore ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Capture pin levels."""
        return {"levels": dict(self._levels)}

    def restore_state(self, state: dict) -> None:
        """Restore a prior :meth:`snapshot_state` in place."""
        self._levels = dict(state["levels"])


class Led:
    """Onboard LED attached to one GPIO pin."""

    def __init__(self, gpio: GpioController, pin: int, name: str = "led") -> None:
        self.gpio = gpio
        self.pin = pin
        self.name = name

    def on(self) -> None:
        self.gpio.set_level(self.pin, True)

    def off(self) -> None:
        self.gpio.set_level(self.pin, False)

    def toggle(self) -> bool:
        return self.gpio.toggle(self.pin)

    @property
    def lit(self) -> bool:
        return self.gpio.get_level(self.pin)
