"""Scenario configuration: one INI-style file drives every run.

Sections and keys::

    [phase]      b, c, A, B, alpha1, alpha2 (continuity fixes the intercepts)
    [grid]       L, T_end, n_x, n_t, n_modes
    [final_datum] amplitude, modes          (g = amplitude * sum_k cos(k pi x/L))
    [sources]    one key per source, each a comma list of finite cosine coefficients
    [margins]    delta                     (construction margin, finite and positive)
    [regularization] eps                   (finite, positive, distinct to 6 digits)
    [output]     dir

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
                "final_datum": ("amplitude", "modes"), "margins": ("delta",),
                "regularization": ("eps",), "output": ("dir",)}
#: why a section refuses the keys that older scenario files carried
RETIRED_NOTES = {"phase": " (continuity fixes the intercepts gamma1 and gamma2)",
                 "margins": " (the verdict tolerances are fixed in verifier and the "
                            "rate tolerance in counterexample)"}


@dataclass(frozen=True)
class FinalDatum:
    amplitude: float
    modes: tuple[int, ...]

    def __post_init__(self):
        if not self.modes or any(k < 1 for k in self.modes):
            raise ConfigurationError("final datum needs at least one positive mode index")
        if not math.isfinite(self.amplitude):
            raise ConfigurationError("[final_datum] amplitude must be finite")

    def series(self, L: float) -> CosineSeries:
        coeffs = [0.0] * (max(self.modes) + 1)
        for k in self.modes:
            coeffs[k] += self.amplitude
        return CosineSeries(L, coeffs)


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario; ``delta``, the margin c2, shapes what is built, not what passes."""

    phase: PhaseParams
    grid: Grid
    final_datum: FinalDatum
    sources: tuple[tuple[float, ...], ...]
    eps_list: tuple[float, ...]
    delta: float = DELTA
    output_dir: Path = Path("out")

    def __post_init__(self):
        """Refuse a scenario before any command writes a file for it."""
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ConfigurationError("margin delta must be finite and positive")
        if not all(math.isfinite(c) for src in self.sources for c in src):
            raise ConfigurationError("[sources] coefficients must be finite")
        if not self.eps_list or not all(math.isfinite(eps) and eps > 0 for eps in self.eps_list):
            raise ConfigurationError("[regularization] eps needs one or more finite, "
                                     f"positive values, not {list(self.eps_list)}")
        if len(set(self.eps_tags())) < len(self.eps_list):
            raise ConfigurationError("[regularization] eps values that agree to 6 digits "
                                     "would share files")

    def eps_tags(self) -> list[str]:
        """Each eps's tag in file names: its value to 6 significant digits."""
        return [f"eps{eps:g}".replace(".", "p") for eps in self.eps_list]

    def final_series(self) -> CosineSeries:
        return self.final_datum.series(self.grid.L)

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
            final_datum=FinalDatum(0.1, (1,)),
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
            fsec = parser["final_datum"]
            datum = FinalDatum(float(fsec["amplitude"]),
                               tuple(int(v) for v in _split(fsec["modes"])))
            sources = tuple(tuple(float(v) for v in _split(raw))
                            for raw in parser["sources"].values())
            eps_list = tuple(float(v) for v in _split(parser["regularization"]["eps"]))
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
        parser["final_datum"] = {"amplitude": format(self.final_datum.amplitude, ".17g"),
                                 "modes": ", ".join(map(str, self.final_datum.modes))}
        parser["sources"] = {f"f{i + 1}": ", ".join(format(v, ".17g") for v in src)
                             for i, src in enumerate(self.sources)}
        parser["margins"] = {"delta": format(self.delta, ".17g")}
        parser["regularization"] = {"eps": ", ".join(format(e, ".17g")
                                                     for e in self.eps_list)}
        parser["output"] = {"dir": str(self.output_dir)}
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        with p.open("w") as fh:
            parser.write(fh)


def _split(raw: str) -> list[str]:
    return [piece.strip() for piece in raw.split(",") if piece.strip()]
