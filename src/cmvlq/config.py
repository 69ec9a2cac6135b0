"""Plain-text run configuration: parsing and validation.

Format: bracketed ``[section]`` headers with ``key = value`` lines and
``#`` comments.  Matrices are written row-major with ``;`` between rows
and whitespace between entries, so ``;`` is never a comment character.
Every problem in a file is reported, not just the first one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .coeffs import _COEFF_FIELDS, CoefficientSet, asymmetry, make_coefficients
from .errors import ConfigError
from .lattice import ATOM_SUM_TOL, MAX_TREE_STEPS

__all__ = [
    "MODES",
    "BACKENDS",
    "GridConfig",
    "SimulationConfig",
    "CoefficientConfig",
    "RunConfig",
    "parse_config",
    "load_config",
    "build_coefficients",
    "initial_condition",
]

MODES = ("validate", "solve", "oracle", "compare", "simulate", "suite")
BACKENDS = ("tree", "ode")

# the running coefficients and their slopes in coeffs' field order, then H and QT
_COEFF_ORDER = tuple(name for base in _COEFF_FIELDS for name in (base, base + "_slope")) + ("H", "QT")

_SECTIONS = ("run", "grid", "coefficients", "simulation")


@dataclass(frozen=True)
class GridConfig:
    n_steps: int
    horizon: float
    backend: str = "tree"


@dataclass(frozen=True)
class SimulationConfig:
    n_paths: int = 1000
    seed: int = 0
    n_common_noise: int = 16
    dt_target: float = 1e-3


@dataclass(frozen=True)
class CoefficientConfig:
    """Raw coefficient data as nested tuples, keyed by field name.

    Only the fields present in the source text appear in ``entries``;
    omitted ones take the solver-side zero defaults.  Values are tuples
    (vectors) or tuples of row tuples (matrices) so the dataclass stays
    hashable and equality means bit-equality of the numbers.
    """

    n: int
    d: int
    entries: tuple = ()
    xi_atoms: tuple | None = None
    xi_probs: tuple | None = None


@dataclass(frozen=True)
class RunConfig:
    mode: str
    out: str
    grid: GridConfig
    coefficients: CoefficientConfig
    simulation: SimulationConfig = field(default_factory=SimulationConfig)


# -- low-level value parsing ------------------------------------------------


def _finite_float(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {token!r}")
    return x


def _parse_vector(text: str) -> tuple:
    if ";" in text:
        raise ValueError("expected a single row, found ';'")
    toks = text.split()
    if not toks:
        raise ValueError("empty value")
    return tuple(_finite_float(t) for t in toks)


def _parse_matrix(text: str) -> tuple:
    rows = [r.strip() for r in text.split(";")]
    if any(not r for r in rows):
        raise ValueError("empty matrix row")
    out = []
    for r in rows:
        out.append(tuple(_finite_float(t) for t in r.split()))
    widths = {len(r) for r in out}
    if len(widths) != 1:
        raise ValueError(f"ragged rows, widths {sorted(widths)}")
    return tuple(out)


def _parse_int(text: str) -> int:
    if not text.lstrip("+-").isdigit():
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


# -- file scanning ----------------------------------------------------------


def _scan(text: str, errors: list):
    """First pass: split into sections of {key: (value, line_no)}."""
    data = {}
    section_lines = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                errors.append(f"line {ln}: malformed section header {line!r}")
                current = None
                continue
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                errors.append(f"line {ln}: unknown section [{name}]")
                current = None
                continue
            if name in data:
                errors.append(f"line {ln}: duplicate section [{name}]")
            current = name
            data.setdefault(name, {})
            section_lines.setdefault(name, ln)
            continue
        if "=" not in line:
            errors.append(f"line {ln}: expected 'key = value', got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if current is None:
            errors.append(f"line {ln}: key {key!r} outside any section")
            continue
        if key in data[current]:
            errors.append(f"line {ln}: duplicate key [{current}].{key}")
            continue
        data[current][key] = (value, ln)
    return data, section_lines


class _Section:
    """Typed key extraction with uniform error reporting."""

    def __init__(self, name, raw, header_line, errors):
        self.name = name
        self.raw = dict(raw)
        self.header_line = header_line
        self.errors = errors

    def fail(self, key, line, msg):
        where = f"line {line}: " if line else ""
        self.errors.append(f"{where}[{self.name}].{key}: {msg}")

    def take(self, key, convert, default=None, required=False):
        if key not in self.raw:
            if required:
                self.fail(key, self.header_line, "required key missing")
            return default
        value, ln = self.raw.pop(key)
        try:
            return convert(value)
        except ValueError as exc:
            self.fail(key, ln, str(exc))
            return default

    def flush_unknown(self):
        for key, (_, ln) in self.raw.items():
            self.fail(key, ln, "unknown key")


def _choice(options):
    def convert(text):
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {text!r}")
        return text

    return convert


def _bounded_int(low, high=None):
    def convert(text):
        v = _parse_int(text)
        if v < low or (high is not None and v > high):
            span = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise ValueError(f"expected an integer {span}, got {v}")
        return v

    return convert


def _positive_float(text):
    v = _finite_float(text)
    if v <= 0.0:
        raise ValueError(f"expected a positive number, got {text!r}")
    return v


def _shape_for(name: str, n: int, d: int):
    base = name[:-6] if name.endswith("_slope") else name
    return (n, n) if base in ("H", "QT") else _COEFF_FIELDS[base](n, d)


def _coeff_value(name, text, n, d):
    shape = _shape_for(name, n, d)
    if len(shape) == 1:
        value = _parse_vector(text)
        if len(value) != shape[0]:
            raise ValueError(f"expected {shape[0]} entries, got {len(value)}")
        return value
    value = _parse_matrix(text)
    got = (len(value), len(value[0]))
    if got != shape:
        raise ValueError(f"expected a {shape[0]}x{shape[1]} matrix, got {got[0]}x{got[1]}")
    if name.removesuffix("_slope") in ("Q", "R", "QT"):
        if problem := asymmetry(np.array(value)):
            raise ValueError(problem)
    return value


def _parse_coefficients(sec: _Section) -> CoefficientConfig:
    n = sec.take("n", _bounded_int(1), required=True)
    d = sec.take("d", _bounded_int(1), required=True)
    shapes_known = n is not None and d is not None

    entries = []
    for name in _COEFF_ORDER:
        if name not in sec.raw:
            base = name[:-6] if name.endswith("_slope") else name
            if base in ("Q", "R", "QT") and name == base:
                sec.fail(name, sec.header_line, "required key missing")
            continue
        text, ln = sec.raw.pop(name)
        try:
            if shapes_known:
                entries.append((name, _coeff_value(name, text, n, d)))
            else:
                # still surface number-format problems
                _parse_matrix(text)
        except ValueError as exc:
            sec.fail(name, ln, str(exc))

    xi_atoms = None
    xi_probs = None
    if "xi" in sec.raw and "xi_atoms" in sec.raw:
        _, ln = sec.raw.pop("xi")
        sec.raw.pop("xi_atoms")
        sec.fail("xi", ln, "give either xi or xi_atoms, not both")
    elif "xi" in sec.raw:
        text, ln = sec.raw.pop("xi")
        try:
            row = _parse_vector(text)
            if shapes_known and len(row) != n:
                raise ValueError(f"expected {n} entries, got {len(row)}")
            xi_atoms = (row,)
        except ValueError as exc:
            sec.fail("xi", ln, str(exc))
    elif "xi_atoms" in sec.raw:
        text, ln = sec.raw.pop("xi_atoms")
        try:
            xi_atoms = _parse_matrix(text)
            if shapes_known and len(xi_atoms[0]) != n:
                raise ValueError(f"expected {n} columns, got {len(xi_atoms[0])}")
        except ValueError as exc:
            xi_atoms = None
            sec.fail("xi_atoms", ln, str(exc))
    if "xi_probs" in sec.raw:
        text, ln = sec.raw.pop("xi_probs")
        try:
            xi_probs = _parse_vector(text)
            if any(p <= 0.0 for p in xi_probs):
                raise ValueError("atom weights must be positive")
            total = float(np.sum(xi_probs))  # summed as the tree and the simulation sum them
            if abs(total - 1.0) > ATOM_SUM_TOL:
                raise ValueError(f"atom weights sum to {total!r}, need 1")
            if xi_atoms is not None and len(xi_probs) != len(xi_atoms):
                raise ValueError(
                    f"{len(xi_probs)} weights for {len(xi_atoms)} atoms"
                )
        except ValueError as exc:
            xi_probs = None
            sec.fail("xi_probs", ln, str(exc))
        if xi_probs is not None and xi_atoms is None:
            sec.fail("xi_probs", ln, "xi_probs given without xi_atoms")
            xi_probs = None

    sec.flush_unknown()
    return CoefficientConfig(
        n=n if n is not None else 1,
        d=d if d is not None else 1,
        entries=tuple(entries),
        xi_atoms=xi_atoms,
        xi_probs=xi_probs,
    )


def parse_config(text: str) -> RunConfig:
    """Parse configuration text, reporting every problem found.

    Raises ConfigError carrying the full error list; on success returns
    a RunConfig with defaults filled in for anything omitted.
    """
    errors: list = []
    data, section_lines = _scan(text, errors)

    def section(name):
        return _Section(name, data.get(name, {}), section_lines.get(name, 0), errors)

    run_sec = section("run")
    mode = run_sec.take("mode", _choice(MODES), default="suite")
    out = run_sec.take("out", str, default="out")
    run_sec.flush_unknown()

    if "grid" not in data:
        errors.append("[grid]: section missing (required)")
    grid_sec = section("grid")
    n_steps = grid_sec.take("N", _bounded_int(1), required="grid" in data)
    horizon = grid_sec.take("T", _positive_float, required="grid" in data)
    backend = grid_sec.take("backend", _choice(BACKENDS), default="tree")
    grid_sec.flush_unknown()
    if (
        n_steps is not None
        and backend == "tree"
        and n_steps > MAX_TREE_STEPS
    ):
        grid_sec.fail(
            "N", grid_sec.header_line,
            f"tree backend supports at most {MAX_TREE_STEPS} steps, got {n_steps}",
        )

    if "coefficients" not in data:
        errors.append("[coefficients]: section missing (required)")
        coeffs = CoefficientConfig(n=1, d=1)
    else:
        coeffs = _parse_coefficients(section("coefficients"))

    sim_sec = section("simulation")
    simulation = SimulationConfig(
        n_paths=sim_sec.take("n_paths", _bounded_int(1), default=1000),
        seed=sim_sec.take("seed", _bounded_int(0, 2**64 - 1), default=0),
        n_common_noise=sim_sec.take("n_common_noise", _bounded_int(1), default=16),
        dt_target=sim_sec.take("dt_target", _positive_float, default=1e-3),
    )
    sim_sec.flush_unknown()

    if errors:
        def line_of(msg):
            if msg.startswith("line "):
                return int(msg[5:msg.index(":")])
            return 0

        raise ConfigError(sorted(errors, key=line_of))
    return RunConfig(
        mode=mode,
        out=out,
        grid=GridConfig(n_steps=n_steps, horizon=horizon, backend=backend),
        coefficients=coeffs,
        simulation=simulation,
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# -- number formatting ------------------------------------------------------


def format_real(x: float) -> str:
    """Decimal text with enough digits to reproduce the float bit-exactly."""
    return "%.17g" % float(x)


# -- bridge to solver objects -----------------------------------------------


def build_coefficients(cfg: RunConfig) -> CoefficientSet:
    cc = cfg.coefficients
    fields = {}
    special = {}
    for name, value in cc.entries:
        target = special if name in ("H", "QT") else fields
        target[name] = np.array(value, dtype=float)
    return make_coefficients(
        cc.n,
        cc.d,
        cfg.grid.horizon,
        cfg.grid.n_steps,
        H=special.get("H"),
        QT=special.get("QT"),
        **fields,
    )


def initial_condition(cfg: RunConfig):
    """Initial atoms (m, n) and their weights (m,), defaults resolved."""
    cc = cfg.coefficients
    if cc.xi_atoms is None:
        return np.zeros((1, cc.n)), np.ones(1)
    xi = np.array(cc.xi_atoms, dtype=float)
    if cc.xi_probs is None:
        probs = np.full(len(xi), 1.0 / len(xi))
    else:
        probs = np.array(cc.xi_probs, dtype=float)
    return xi, probs


def with_overrides(cfg: RunConfig, *, mode=None, seed=None, n_paths=None,
                   out=None, backend=None) -> RunConfig:
    """Functional update used by the command line flags."""
    if mode is not None:
        if mode not in MODES:
            raise ConfigError([f"mode: expected one of {', '.join(MODES)}, got {mode!r}"])
        cfg = replace(cfg, mode=mode)
    if out is not None:
        cfg = replace(cfg, out=out)
    if backend is not None:
        if backend not in BACKENDS:
            raise ConfigError([f"backend: expected one of {', '.join(BACKENDS)}"])
        cfg = replace(cfg, grid=replace(cfg.grid, backend=backend))
    sim = cfg.simulation
    if seed is not None:
        if not 0 <= seed < 2**64:
            raise ConfigError([f"seed: expected an unsigned 64-bit value, got {seed}"])
        sim = replace(sim, seed=seed)
    if n_paths is not None:
        if n_paths < 1:
            raise ConfigError([f"paths: expected a positive count, got {n_paths}"])
        sim = replace(sim, n_paths=n_paths)
    return replace(cfg, simulation=sim)
