"""Flat ``key = value`` configuration files with one level of sections.

The format is deliberately primitive: ``[section]`` headers, one
``key = value`` pair per line, lists comma-separated, ``#`` comments.
Kernel selection reads the keys kernel.family / kernel.axis /
kernel.exponents / kernel.c0 / kernel.c1; graphs and measures follow
the same pattern (see README for the full schema).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .. import geometry, kernel as kernel_mod, measure


class ConfigError(Exception):
    """Malformed configuration; maps to CLI exit code 2."""


@dataclass
class Config:
    """Parsed sections plus an echo of every value actually consumed
    (defaults expanded), so reports can reproduce the effective config.
    """

    sections: dict[str, dict[str, str]]
    echo: dict[str, str] = field(default_factory=dict)

    def has(self, section: str, key: str) -> bool:
        return key in self.sections.get(section, {})

    def _raw(self, section: str, key: str, default):
        sec = self.sections.get(section, {})
        if key not in sec:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {section}.{key}")
            self.echo[f"{section}.{key}"] = _fmt(default)
            return default
        raw = sec[key]
        self.echo[f"{section}.{key}"] = raw
        return raw

    def get_str(self, section: str, key: str, default=None) -> str:
        return self._raw(section, key, default)

    def _parsed(self, section: str, key: str, default, convert, what: str):
        """The value through ``convert``; defaults pass unconverted."""
        val = self._raw(section, key, default)
        if not isinstance(val, str):
            return val
        try:
            return convert(val)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key} is not {what}: {val!r}") from exc

    def get_float(self, section: str, key: str, default=None) -> float:
        return self._parsed(section, key, default, _finite, "a finite number")

    def get_int(self, section: str, key: str, default=None) -> int:
        return self._parsed(section, key, default, int, "an integer")

    def get_bool(self, section: str, key: str, default=None) -> bool:
        val = self._raw(section, key, default)
        if isinstance(val, str):
            low = val.strip().lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ConfigError(f"{section}.{key} is not a boolean: {val!r}")
        return val

    def get_floats(self, section: str, key: str, default=None) -> list[float]:
        return list(self._parsed(section, key, default, _list_of(_finite), "a finite number list"))

    def get_ints(self, section: str, key: str, default=None) -> list[int]:
        return list(self._parsed(section, key, default, _list_of(int), "an integer list"))


class _Required:
    pass


_REQUIRED = _Required()
REQUIRED = _REQUIRED


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _list_of(convert):
    return lambda text: [convert(v) for v in text.split(",") if v.strip()]


def _fmt(value) -> str:
    if isinstance(value, (list, tuple)):
        return ", ".join(str(v) for v in value)
    return str(value)


def load_config(path) -> Config:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",), comment_prefixes=("#", ";")
    )
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file: {exc}") from exc
    sections = {
        name.lower(): {k.lower(): v.strip() for k, v in parser.items(name)}
        for name in parser.sections()
    }
    return Config(sections)


def config_from_dict(data: dict[str, dict[str, str]]) -> Config:
    """In-memory config, mirroring the file format (used by tests)."""
    return Config({s.lower(): {k.lower(): str(v) for k, v in kv.items()} for s, kv in data.items()})


# ---------------------------------------------------------------------------
# Typed builders
# ---------------------------------------------------------------------------


def build_kernel(cfg: Config, section: str = "kernel"):
    family = cfg.get_str(section, "family", "riesz").lower()
    dim = cfg.get_int(section, "dim", REQUIRED)
    c0 = cfg.get_float(section, "c0", 0.0) or None
    c1 = cfg.get_float(section, "c1", 0.0) or None
    try:
        if family == "riesz":
            axis = cfg.get_int(section, "axis", 1)  # 1-based in config files
            kern = kernel_mod.RieszComponent(dim, axis - 1, c0, c1)
        elif family == "odd_homogeneous":
            exponents = tuple(cfg.get_ints(section, "exponents", REQUIRED))
            kern = kernel_mod.OddHomogeneous(dim, exponents, c0, c1)
        else:
            raise ConfigError(f"unknown kernel family {family!r}")
    except ValueError as exc:
        raise ConfigError(f"invalid kernel: {exc}") from exc
    # echo the constants the kernel actually certifies, not the sentinel
    cfg.echo[f"{section}.c0"] = _fmt(kern.c0_declared)
    cfg.echo[f"{section}.c1"] = _fmt(kern.c1_declared)
    return kern


def build_graph(cfg: Config, section: str = "graph"):
    dim = cfg.get_int(section, "dim", REQUIRED)
    profile_name = cfg.get_str(section, "profile", REQUIRED).lower()
    try:
        if profile_name == "affine":
            slope = tuple(cfg.get_floats(section, "slope", [0.0] * (dim - 1)))
            offset = cfg.get_float(section, "offset", 0.0)
            profile = geometry.Affine(slope, offset)
        elif profile_name == "sawtooth":
            profile = geometry.Sawtooth(
                cfg.get_float(section, "amplitude", REQUIRED),
                cfg.get_float(section, "period", REQUIRED),
            )
        elif profile_name == "cone":
            profile = geometry.ConeProfile(cfg.get_float(section, "slope", REQUIRED))
        elif profile_name == "smooth_bump":
            profile = geometry.SmoothBump(
                cfg.get_float(section, "amplitude", REQUIRED),
                cfg.get_float(section, "width", REQUIRED),
            )
        else:
            raise ConfigError(f"unknown graph profile {profile_name!r}")
        return geometry.LipschitzGraph(dim, profile)
    except ValueError as exc:
        raise ConfigError(f"invalid graph: {exc}") from exc


def _parse_box(cfg: Config, section: str, dim: int, default=REQUIRED):
    vals = cfg.get_floats(section, "box", default)
    if len(vals) == 2:
        return [(vals[0], vals[1])] * dim
    if len(vals) != 2 * dim:
        raise ConfigError(f"{section}.box needs 2 or {2 * dim} numbers")
    return [(vals[2 * i], vals[2 * i + 1]) for i in range(dim)]


def _parse_shape(cfg: Config, section: str):
    kind = cfg.get_str(section, "shape", REQUIRED).lower()
    center = tuple(cfg.get_floats(section, "center", REQUIRED))
    try:
        if kind == "ball":
            return geometry.Ball(center, cfg.get_float(section, "radius", REQUIRED))
        if kind == "rectangle":
            half = tuple(cfg.get_floats(section, "half_widths", REQUIRED))
            return geometry.Rectangle(center, half)
    except ValueError as exc:
        raise ConfigError(f"invalid shape: {exc}") from exc
    raise ConfigError(f"unknown shape kind {kind!r}")


def build_measure_spec(cfg: Config, section: str, graph=None):
    kind = cfg.get_str(section, "kind", REQUIRED).lower()
    try:
        if kind == "graph_measure":
            if graph is None:
                graph = build_graph(cfg)
            box = _parse_box(cfg, section, graph.param_dim)
            return measure.GraphMeasureSpec(
                graph, box,
                cfg.get_int(section, "m", REQUIRED),
                cfg.get_float(section, "shift", 0.0),
            )
        if kind == "cantor":
            return measure.CantorFourCornersSpec(cfg.get_int(section, "generation", REQUIRED))
        if kind == "uniform_on_shape":
            return measure.UniformOnShapeSpec(
                _parse_shape(cfg, section), cfg.get_int(section, "m", REQUIRED)
            )
        if kind == "slab_above_graph":
            if graph is None:
                graph = build_graph(cfg)
            box = _parse_box(cfg, section, graph.param_dim)
            return measure.SlabAboveGraphSpec(
                graph, box,
                cfg.get_int(section, "m", REQUIRED),
                cfg.get_float(section, "thickness", REQUIRED),
                cfg.get_int(section, "levels", 8),
                cfg.get_float(section, "shift", 0.0),
            )
    except ValueError as exc:
        raise ConfigError(f"invalid measure spec: {exc}") from exc
    raise ConfigError(f"unknown measure kind {kind!r}")


def build_measure(cfg: Config, section: str, graph=None) -> measure.DiscreteMeasure:
    try:
        return measure.build(build_measure_spec(cfg, section, graph))
    except ValueError as exc:
        raise ConfigError(f"cannot build measure [{section}]: {exc}") from exc
