"""Plain-text run configuration: newline-separated ``key = value`` pairs."""

from __future__ import annotations

import typing
from dataclasses import dataclass

from .driver import LoopConfig
from .problems import ProblemSpec, builtin_problem


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """One run's settings; loop defaults come from :class:`LoopConfig`."""

    problem: str = "square_smooth"
    strategy: str = LoopConfig.strategy
    theta: float = LoopConfig.theta
    tol: float = LoopConfig.tol
    beta: float | None = None
    noise: float = 0.0
    seed: int = 0
    max_iters: int = LoopConfig.max_iters
    max_triangles: int = LoopConfig.max_triangles
    out_dir: str = "."


# key -> parser of its value: the field's type, ``float`` for ``float | None``
_PARSERS = {name: (typing.get_args(hint) or (hint,))[0]
            for name, hint in typing.get_type_hints(RunConfig).items()}


def build_run(cfg: RunConfig) -> tuple[ProblemSpec, LoopConfig]:
    """The problem and loop settings that a run config describes.

    Each object checks its own fields, so a bad value raises ``ValueError``
    naming its key before any measurement is generated or system solved.
    """
    problem = builtin_problem(cfg.problem).with_overrides(
        beta=cfg.beta, noise=cfg.noise, seed=cfg.seed)
    loop = LoopConfig(
        strategy=cfg.strategy, theta=cfg.theta, tol=cfg.tol,
        max_iters=cfg.max_iters, max_triangles=cfg.max_triangles)
    return problem, loop


def parse_config(text: str) -> RunConfig:
    """Parse a config file body; unknown and repeated keys are rejected,
    missing keys take their documented defaults.  '#' starts a comment."""
    cfg = RunConfig()
    seen = {}  # key -> line it was set on
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}; "
                              f"accepted keys: {', '.join(_PARSERS)}")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line "
                              f"{seen[key]}")
        seen[key] = lineno
        try:
            setattr(cfg, key, _PARSERS[key](value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: "
                              f"{value!r}") from exc
    try:
        build_run(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg
