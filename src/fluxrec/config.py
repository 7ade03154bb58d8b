"""Plain-text run configuration: newline-separated ``key = value`` pairs."""

from __future__ import annotations

from dataclasses import dataclass

from .marking import STRATEGIES, check_theta


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    problem: str = "square_smooth"
    strategy: str = "maximum"
    theta: float = 0.5
    tol: float = 1e-3
    beta: float | None = None
    noise: float = 0.0
    seed: int = 0
    max_iters: int = 20
    max_triangles: int = 50_000
    cg_tol: float = 1e-10
    out_dir: str = "."


_PARSERS = {
    "problem": str,
    "strategy": str,
    "theta": float,
    "tol": float,
    "beta": float,
    "noise": float,
    "seed": int,
    "max_iters": int,
    "max_triangles": int,
    "cg_tol": float,
    "out_dir": str,
}


def _validate(cfg: RunConfig):
    if cfg.strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {STRATEGIES}, "
                          f"got {cfg.strategy!r}")
    try:
        check_theta(cfg.theta, cfg.strategy)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not cfg.tol > 0.0:
        raise ConfigError(f"tol must be > 0: {cfg.tol}")
    if cfg.beta is not None and not cfg.beta > 0.0:
        raise ConfigError(f"beta must be > 0: {cfg.beta}")
    if not 0.0 <= cfg.noise <= 1.0:
        raise ConfigError(f"noise out of range [0, 1]: {cfg.noise}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0: {cfg.seed}")
    if cfg.max_iters < 1:
        raise ConfigError(f"max_iters must be >= 1: {cfg.max_iters}")
    if cfg.max_triangles < 1:
        raise ConfigError(f"max_triangles must be >= 1: {cfg.max_triangles}")
    if not cfg.cg_tol > 0.0:
        raise ConfigError(f"cg_tol must be > 0: {cfg.cg_tol}")


def parse_config(text: str) -> RunConfig:
    """Parse a config file body; unknown keys are rejected, missing keys
    take their documented defaults.  '#' starts a comment."""
    cfg = RunConfig()
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
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _PARSERS[key](value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: "
                              f"{value!r}") from exc
    _validate(cfg)
    return cfg
