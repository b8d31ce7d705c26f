"""Run configuration: flat key=value files with CLI overrides (CLI wins)."""

from __future__ import annotations

from dataclasses import dataclass, replace

ALL_SUITES = (
    "waves",
    "charges",
    "bethe",
    "transfer",
    "lattice",
    "aop",
)

_KEYS = {"mode", "seed", "out", "suites", "quiet"}
_FLAGS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    mode: str = "exact"            # exact | float
    seed: int = 1
    out_dir: str = "reports"
    suites: tuple = ALL_SUITES
    quiet: bool = False
    json_stdout: bool = False

    def __post_init__(self):
        if self.mode not in ("exact", "float"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not self.suites:
            raise ConfigError("no suites to run")
        bad = [s for s in self.suites if s not in ALL_SUITES]
        if bad:
            raise ConfigError(f"unknown suites: {bad}")


def parse_config_file(path: str) -> dict:
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value
    return values


def build_config(file_values: dict | None = None, **overrides) -> RunConfig:
    """Defaults, then config file, then CLI overrides."""
    cfg = RunConfig()
    merged: dict = {}
    if file_values:
        if "mode" in file_values:
            merged["mode"] = file_values["mode"]
        if "seed" in file_values:
            try:
                merged["seed"] = int(file_values["seed"])
            except ValueError as err:
                raise ConfigError(f"bad seed: {file_values['seed']!r}") from err
        if "out" in file_values:
            merged["out_dir"] = file_values["out"]
        if "suites" in file_values:
            merged["suites"] = tuple(
                s.strip() for s in file_values["suites"].split(",") if s.strip())
        if "quiet" in file_values:
            quiet = file_values["quiet"]
            if quiet.lower() not in _FLAGS:
                raise ConfigError(f"bad quiet: {quiet!r}, expected one of "
                                  f"{'/'.join(_FLAGS)}")
            merged["quiet"] = _FLAGS[quiet.lower()]
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return replace(cfg, **merged)
