"""Run configuration shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_ENUMERATION_CAP = 10**7


@dataclass
class RunConfig:
    """Enumeration cap and sampling seed; cap must stay positive."""

    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    seed: int = 0

    def __post_init__(self) -> None:
        if self.enumeration_cap < 1:
            raise ValueError("enumeration_cap must be >= 1")
