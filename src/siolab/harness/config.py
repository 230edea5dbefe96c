"""Flat ``key = value`` configuration files with one level of sections.

The format is deliberately primitive: ``[section]`` headers, one
``key = value`` pair per line, lists comma-separated, ``#`` comments.
Kernel selection reads the keys kernel.family / kernel.axis /
kernel.exponents / kernel.c0 / kernel.c1; graphs and measures follow
the same pattern.  The ``[scenario]`` keys of each scenario tag, with
their kinds, defaults and ranges, are the ``Key`` tables of
``harness.scenarios.SCENARIOS``, read by ``scenarios.read_scenario``.
"""

from __future__ import annotations

import configparser
import contextlib
import math
from dataclasses import dataclass, field

from .. import geometry, kernel as kernel_mod, measure


class ConfigError(Exception):
    """Malformed configuration; maps to CLI exit code 2."""


@contextlib.contextmanager
def blame(where: str):
    """Raise a ValueError of the block (a failed precondition or an
    operator's size guard) as a ConfigError ``<where>: <reason>``, where
    ``where`` is the config key or ``[section]`` that set the offending
    input; the one map from a library ValueError to exit 2."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class Config:
    """Parsed sections plus an echo of every value actually consumed
    (defaults expanded), so reports can reproduce the effective config
    and ``check_all_read`` can name a key that no getter consumed.
    """

    sections: dict[str, dict[str, str]]
    echo: dict[str, str] = field(default_factory=dict)

    def has(self, section: str, key: str) -> bool:
        return key in self.sections.get(section, {})

    def get_str(self, section: str, key: str, default=None) -> str:
        """The raw text of [section].key, else ``default``; either is echoed."""
        sec = self.sections.get(section, {})
        if key not in sec:
            if default is REQUIRED:
                raise ConfigError(f"missing required key {section}.{key}")
            self.echo[f"{section}.{key}"] = _fmt(default)
            return default
        raw = sec[key]
        self.echo[f"{section}.{key}"] = raw
        return raw

    def get_as(self, section: str, key: str, default, kind: str):
        """The value converted as ``kind`` (see ``_KINDS``); defaults pass unconverted."""
        val = self.get_str(section, key, default)
        if not isinstance(val, str):
            return val
        convert, what = _KINDS[kind]
        try:
            return convert(val)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key} is not {what}: {val!r}") from exc

    def get_float(self, section: str, key: str, default=None) -> float:
        return self.get_as(section, key, default, "float")

    def get_int(self, section: str, key: str, default=None) -> int:
        return self.get_as(section, key, default, "int")

    def get_floats(self, section: str, key: str, default=None) -> list[float]:
        return list(self.get_as(section, key, default, "floats"))

    def get_ints(self, section: str, key: str, default=None) -> list[int]:
        return list(self.get_as(section, key, default, "ints"))

    def check_all_read(self) -> None:
        """Raise a ConfigError naming every section that the run never
        read, and every key that it never read in a section it read
        (echoed); run before any output is written."""
        read = {name.partition(".")[0] for name in self.echo}
        sections = [f"[{s}]" for s in sorted(set(self.sections) - read)]
        if sections:
            raise ConfigError(f"section not read by this run: {', '.join(sections)}")
        unread = [f"{s}.{k}" for s in sorted(self.sections) for k in self.sections[s]]
        unread = [name for name in unread if name not in self.echo]
        if unread:
            raise ConfigError(f"key not read by this run: {', '.join(unread)}")


class _Required:
    pass


REQUIRED = _Required()


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _list_of(convert):
    return lambda text: [convert(v) for v in text.split(",") if v.strip()]


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"{text!r} is not a boolean")


_KINDS = {  # kind -> (converter of the raw text, what the text must be)
    "int": (int, "an integer"),
    "float": (_finite, "a finite number"),
    "bool": (_bool, "a boolean"),
    "ints": (_list_of(int), "an integer list"),
    "floats": (_list_of(_finite), "a finite number list"),
}


def _fmt(value) -> str:
    if isinstance(value, (list, tuple)):
        return ", ".join(str(v) for v in value)
    return str(value)


def load_config(path) -> Config:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",), comment_prefixes=("#", ";")
    )
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
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


def build_kernel(cfg: Config):
    family = cfg.get_str("kernel", "family", "riesz").lower()
    dim = cfg.get_int("kernel", "dim", REQUIRED)
    c0 = cfg.get_float("kernel", "c0", 0.0) or None
    c1 = cfg.get_float("kernel", "c1", 0.0) or None
    with blame("[kernel]"):
        if family == "riesz":
            axis = cfg.get_int("kernel", "axis", 1)  # 1-based in config files
            kern = kernel_mod.RieszComponent(dim, axis - 1, c0, c1)
        elif family == "odd_homogeneous":
            exponents = tuple(cfg.get_ints("kernel", "exponents", REQUIRED))
            kern = kernel_mod.OddHomogeneous(dim, exponents, c0, c1)
        else:
            raise ConfigError(f"unknown kernel family {family!r}")
    # echo the constants the kernel actually certifies, not the sentinel
    cfg.echo["kernel.c0"] = _fmt(kern.c0_declared)
    cfg.echo["kernel.c1"] = _fmt(kern.c1_declared)
    return kern


def optional_graph(cfg: Config):
    """The [graph] section's graph, or None where the config has none."""
    return build_graph(cfg) if cfg.has("graph", "profile") else None


def build_graph(cfg: Config):
    dim = cfg.get_int("graph", "dim", REQUIRED)
    profile_name = cfg.get_str("graph", "profile", REQUIRED).lower()
    with blame("[graph]"):
        if profile_name == "affine":
            slope = tuple(cfg.get_floats("graph", "slope", [0.0] * (dim - 1)))
            offset = cfg.get_float("graph", "offset", 0.0)
            profile = geometry.Affine(slope, offset)
        elif profile_name == "sawtooth":
            profile = geometry.Sawtooth(
                cfg.get_float("graph", "amplitude", REQUIRED),
                cfg.get_float("graph", "period", REQUIRED),
            )
        elif profile_name == "cone":
            profile = geometry.ConeProfile(cfg.get_float("graph", "slope", REQUIRED))
        elif profile_name == "smooth_bump":
            profile = geometry.SmoothBump(
                cfg.get_float("graph", "amplitude", REQUIRED),
                cfg.get_float("graph", "width", REQUIRED),
            )
        else:
            raise ConfigError(f"unknown graph profile {profile_name!r}")
        return geometry.LipschitzGraph(dim, profile)


def box_pairs(vals: list[float], dim: int, name: str) -> list[tuple[float, float]]:
    """Per-axis (lo, hi), lo < hi: ``lo, hi`` for every axis, or one pair per axis."""
    if len(vals) == 2:
        vals = vals * dim
    pairs = list(zip(vals[::2], vals[1::2]))
    if len(vals) != 2 * dim or any(hi <= lo for lo, hi in pairs):
        raise ConfigError(f"{name} needs 2 or {2 * dim} numbers, each lo below its hi")
    return pairs


def _parse_shape(cfg: Config, section: str):
    kind = cfg.get_str(section, "shape", REQUIRED).lower()
    center = tuple(cfg.get_floats(section, "center", REQUIRED))
    if kind == "ball":
        return geometry.Ball(center, cfg.get_float(section, "radius", REQUIRED))
    if kind == "rectangle":
        return geometry.Rectangle(center, tuple(cfg.get_floats(section, "half_widths", REQUIRED)))
    raise ConfigError(f"unknown shape kind {kind!r}")


def build_measure(cfg: Config, section: str, graph, m: int | None = None) -> measure.DiscreteMeasure:
    """The measure of [section], a ValueError of its parts or of its
    build (such as the atom-count guard) naming the section.  A
    graph-based kind without a ``graph`` (None) builds it from [graph].
    A resolution sweep passes its atom count ``m``, which [section] then
    may not set."""
    kind = cfg.get_str(section, "kind", REQUIRED).lower()

    def count() -> int:
        return cfg.get_int(section, "m", REQUIRED) if m is None else m

    with blame(f"[{section}]"):
        if kind in ("graph_measure", "slab_above_graph"):
            graph = graph if graph is not None else build_graph(cfg)
            box = box_pairs(cfg.get_floats(section, "box", REQUIRED), graph.param_dim, f"{section}.box")
        if kind == "graph_measure":
            spec = measure.GraphMeasureSpec(graph, box, count(), cfg.get_float(section, "shift", 0.0))
        elif kind == "cantor":
            spec = measure.CantorFourCornersSpec(cfg.get_int(section, "generation", REQUIRED))
        elif kind == "uniform_on_shape":
            spec = measure.UniformOnShapeSpec(_parse_shape(cfg, section), count())
        elif kind == "slab_above_graph":
            spec = measure.SlabAboveGraphSpec(
                graph, box,
                count(),
                cfg.get_float(section, "thickness", REQUIRED),
                cfg.get_int(section, "levels", 8),
                cfg.get_float(section, "shift", 0.0),
            )
        else:
            raise ConfigError(f"unknown measure kind {kind!r}")
        return measure.build(spec)
