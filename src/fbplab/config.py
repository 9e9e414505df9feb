"""Scenario configuration: one INI-style file drives every run.

Sections and keys::

    [phase]      b, c, A, B, alpha1, alpha2 (continuity fixes the intercepts)
    [grid]       L, T_end, n_x, n_t, n_modes
    [final_datum] coefficients             (g = sum_k c_k cos(k pi x/L), c_0 its mean)
    [sources]    one key per source, each a comma list of cosine coefficients
    [margins]    delta                     (construction margin, finite and positive)
    [regularization] eps                   (positive, distinct to 6 digits)
    [output]     dir

Every comma list, ``inverse --a`` and ``--b`` included, is read by
``parse_floats`` and written by ``_format_floats``; it needs one or more values,
all finite, or it is refused under its key as the file or command line spells it.
Key case is significant (the phase section distinguishes A from alpha1's a).
A section not listed here, or a key a section does not list, is a
configuration error (``[sources]`` keys are free names), so a misspelt section
or key cannot silently run a different scenario.  The tolerances that decide a
verdict are fixed in ``verifier``, and the rate
tolerance of certification in ``counterexample``; ``PhaseParams`` derives the
outer-branch intercepts ``gamma1, gamma2`` from the six ``[phase]`` values.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .counterexample import DELTA
from .errors import ConfigurationError
from .phase_model import PhaseParams
from .spectral import CosineSeries, Grid

PHASE_KEYS = ("b", "c", "A", "B", "alpha1", "alpha2")
#: the keys each section accepts; ``[sources]`` names its sources freely
SECTION_KEYS = {"phase": PHASE_KEYS, "grid": ("L", "T_end", "n_x", "n_t", "n_modes"),
                "final_datum": ("coefficients",), "margins": ("delta",),
                "regularization": ("eps",), "output": ("dir",)}
#: why a section refuses the keys that older scenario files carried
RETIRED_NOTES = {"phase": " (continuity fixes the intercepts gamma1 and gamma2)",
                 "final_datum": " (the datum is its cosine coefficients c_0, c_1, ...: "
                                "amplitude a on modes k is a at each index k)",
                 "margins": " (the verdict tolerances are fixed in verifier and the "
                            "rate tolerance in counterexample)"}


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario; ``delta``, the margin c2, shapes what is built, not what passes."""

    phase: PhaseParams
    grid: Grid
    final_datum: tuple[float, ...]
    sources: tuple[tuple[float, ...], ...]
    eps_list: tuple[float, ...]
    delta: float = DELTA
    output_dir: Path = Path("out")

    def __post_init__(self):
        """Refuse a scenario before any command writes a file for it."""
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ConfigurationError("margin delta must be finite and positive")
        _check_floats(self.final_datum, "[final_datum] coefficients")
        for i, src in enumerate(self.sources):
            _check_floats(src, f"[sources] source {i} coefficients")
        if not all(eps > 0 for eps in _check_floats(self.eps_list, "[regularization] eps")):
            raise ConfigurationError("[regularization] eps values must be positive, "
                                     f"not {list(self.eps_list)}")
        if len(set(self.eps_tags())) < len(self.eps_list):
            raise ConfigurationError("[regularization] eps values that agree to 6 digits "
                                     "would share files")

    def eps_tags(self) -> list[str]:
        """Each eps's tag in file names: its value to 6 significant digits."""
        return [f"eps{eps:g}".replace(".", "p") for eps in self.eps_list]

    def final_series(self) -> CosineSeries:
        return CosineSeries(self.grid.L, self.final_datum)

    def source_series(self) -> list[CosineSeries]:
        return [CosineSeries(self.grid.L, list(c)) for c in self.sources]

    def with_output(self, out) -> "ScenarioConfig":
        return replace(self, output_dir=Path(out))

    @classmethod
    def default(cls) -> "ScenarioConfig":
        """The reference scenario: unit phase diagram, g = 0.1 cos x on (0, pi),
        sources |sigma| * {1, 1 + 0.3 cos x, 1 + 0.3 cos 2x}."""
        phase = PhaseParams.default()
        s = phase.sigma_abs
        return cls(
            phase=phase,
            grid=Grid(L=math.pi, T_end=1.0, n_x=128, n_t=256, n_modes=32),
            final_datum=(0.0, 0.1),
            sources=((s,), (s, 0.3 * s), (s, 0.0, 0.3 * s)),
            eps_list=(0.1, 0.01, 0.001),
        )

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keep key case: A vs alpha
        try:
            read = parser.read(path)
        except configparser.Error as exc:  # a duplicate key, a line outside any section
            raise ConfigurationError(f"bad scenario file {path}: {exc}") from exc
        if not read:
            raise ConfigurationError(f"cannot read config file {path}")
        known = [f"[{name}]" for name in (*SECTION_KEYS, "sources")]
        unknown = [f"[{name}]" for name in parser.sections() if f"[{name}]" not in known]
        if unknown:
            raise ConfigurationError(f"bad scenario file {path}: unknown section(s) "
                                     f"{', '.join(unknown)}; the sections are {', '.join(known)}")
        for section, keys in SECTION_KEYS.items():
            present = parser[section] if parser.has_section(section) else {}
            unknown = [k for k in present if k not in keys]
            if unknown:
                note = RETIRED_NOTES.get(section, "")
                raise ConfigurationError(
                    f"bad scenario file {path}: [{section}] takes only "
                    f"{', '.join(keys)}, not {', '.join(unknown)}{note}")
        try:
            phase = PhaseParams(**{k: parser.getfloat("phase", k) for k in PHASE_KEYS})
            gsec = parser["grid"]
            grid = Grid(L=float(gsec["L"]), T_end=float(gsec["T_end"]),
                        n_x=int(gsec["n_x"]), n_t=int(gsec["n_t"]),
                        n_modes=int(gsec["n_modes"]))
            datum = parse_floats(parser["final_datum"]["coefficients"],
                                 "[final_datum] coefficients")
            sources = tuple(parse_floats(raw, f"[sources] {key}")
                            for key, raw in parser["sources"].items())
            eps_list = parse_floats(parser["regularization"]["eps"], "[regularization] eps")
            delta = parser.getfloat("margins", "delta", fallback=DELTA)
            out = Path(parser.get("output", "dir", fallback="out"))
        except (KeyError, ValueError, configparser.Error) as exc:
            raise ConfigurationError(f"bad scenario file {path}: {exc}") from exc
        return cls(phase=phase, grid=grid, final_datum=datum, sources=sources,
                   eps_list=eps_list, delta=delta, output_dir=out)

    def to_file(self, path) -> None:
        parser = configparser.ConfigParser()
        parser.optionxform = str
        parser["phase"] = {k: format(getattr(self.phase, k), ".17g") for k in PHASE_KEYS}
        parser["grid"] = {"L": format(self.grid.L, ".17g"),
                          "T_end": format(self.grid.T_end, ".17g"),
                          "n_x": str(self.grid.n_x), "n_t": str(self.grid.n_t),
                          "n_modes": str(self.grid.n_modes)}
        parser["final_datum"] = {"coefficients": _format_floats(self.final_datum)}
        parser["sources"] = {f"f{i + 1}": _format_floats(src)
                             for i, src in enumerate(self.sources)}
        parser["margins"] = {"delta": format(self.delta, ".17g")}
        parser["regularization"] = {"eps": _format_floats(self.eps_list)}
        parser["output"] = {"dir": str(self.output_dir)}
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        with p.open("w") as fh:
            parser.write(fh)


def parse_floats(raw: str, name: str) -> tuple[float, ...]:
    """The comma list ``raw`` as floats, refused under ``name`` (``[sources] f1``,
    ``--a``) unless every piece is a number, at least one is given and all are finite."""
    try:
        values = tuple(float(piece) for piece in raw.split(",") if piece.strip())
    except ValueError as exc:
        raise ConfigurationError(f"{name} must be a comma list of numbers, not {raw!r}") from exc
    return _check_floats(values, name)


def _check_floats(values: tuple[float, ...], name: str) -> tuple[float, ...]:
    """``values`` when it holds at least one value and all are finite, else a
    refusal that names it ``name``."""
    if not values or not all(math.isfinite(v) for v in values):
        raise ConfigurationError(f"{name} must hold one or more finite values, "
                                 f"not {list(values)}")
    return values


def _format_floats(values: tuple[float, ...]) -> str:
    """The comma list that ``parse_floats`` reads back as ``values``, bit for bit."""
    return ", ".join(format(v, ".17g") for v in values)
